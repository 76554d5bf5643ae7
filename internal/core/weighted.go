package core

import (
	"orpheusdb/internal/partition"
	"orpheusdb/internal/vgraph"
)

// PlanRepartitionWeighted is PlanRepartition for the weighted checkout cost
// of Appendix C.2: freq gives each version's checkout frequency (missing
// versions weigh 1), so hot versions land in small partitions. Real workloads
// typically weight recent versions heavily.
func (c *CVD) PlanRepartitionWeighted(gammaFactor float64, freq map[vgraph.VersionID]int64, batchRows int64) (*RepartitionPlan, error) {
	return c.solve(gammaFactor, 0, batchRows, func(t *vgraph.Tree, gamma int64) (*partition.SolveResult, error) {
		return partition.SolveWeighted(t, freq, gamma)
	})
}

// RecencyWeights builds a frequency map that weights the most recent
// versions of the CVD `hot`× more than the rest — the workload shape the
// paper suggests for the weighted case.
func (c *CVD) RecencyWeights(recentFraction float64, hot int64) map[vgraph.VersionID]int64 {
	if recentFraction <= 0 || recentFraction > 1 {
		recentFraction = 0.25
	}
	if hot < 1 {
		hot = 10
	}
	freq := make(map[vgraph.VersionID]int64, len(c.vm.order))
	cut := int(float64(len(c.vm.order)) * (1 - recentFraction))
	for i, v := range c.vm.order {
		if i >= cut {
			freq[v] = hot
		} else {
			freq[v] = 1
		}
	}
	return freq
}
