package partition

import (
	"math"
	"testing"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/vgraph"
)

func seqSet(n int64) *bitmap.Bitmap {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	return bitmap.FromSlice(vals)
}

// TestAccessWeightsFlipDriftDecision pins the acceptance criterion for the
// heat → optimizer wiring: the same partitioning state drifts under the
// paper's uniform assumption but not once observed access frequencies say the
// traffic lives on the expensive version anyway (Appendix C.2's Cw).
func TestAccessWeightsFlipDriftDecision(t *testing.T) {
	o := NewOnline(2.0, 1.5)
	// v1 touches 10 records, v2 touches 100 (a superset lineage).
	o.bip.AddVersionSet(1, seqSet(10))
	o.bip.AddVersionSet(2, seqSet(100))

	// Best split keeps them apart: C*avg = (10 + 100) / 2 = 55.
	o.bestGroups = [][]vgraph.VersionID{{1}, {2}}
	o.bestCavg = 55
	o.bestWeightedCavg = -1

	// Current state collapsed both into one 100-record partition:
	// Cavg = (2 * 100) / 2 = 100.
	cur := FromVersionGroups(o.bip, [][]vgraph.VersionID{{1, 2}})
	o.current = cur

	// Uniform weights: 100 > µ·C*avg = 1.5·55 = 82.5 → drifted.
	if !o.Drifted(cur.CheckoutCost()) {
		t.Fatalf("uniform Cavg=%g best=%g: want drifted", cur.CheckoutCost(), o.BestCost())
	}

	// Observed heat: 99 of 100 checkouts hit v2, which costs 100 records in
	// ANY partitioning. The weighted best is (1·10 + 99·100)/100 = 99.1, so
	// the current layout is within tolerance — migration would churn records
	// for traffic that cannot get cheaper.
	w := map[vgraph.VersionID]int64{1: 1, 2: 99}
	o.SetAccessWeights(w)
	if got := o.BestCost(); math.Abs(got-99.1) > 1e-9 {
		t.Fatalf("weighted best cost = %g, want 99.1", got)
	}
	if o.Drifted(cur.WeightedCheckoutCost(o.AccessWeights())) {
		t.Fatalf("weighted Cw=%g best=%g: drift must clear under observed traffic",
			cur.WeightedCheckoutCost(w), o.BestCost())
	}

	// Dropping the weights restores the uniform verdict (and the cached
	// weighted baseline must not leak across the reset).
	o.SetAccessWeights(nil)
	if got := o.BestCost(); got != 55 {
		t.Fatalf("uniform best cost after reset = %g, want 55", got)
	}
	if !o.Drifted(cur.CheckoutCost()) {
		t.Fatal("uniform drift verdict lost after weight reset")
	}
}

// TestReweightingCostsNoUnions: the bitmap unions behind the weighted
// baseline are taken once per best grouping. New weights over the same
// grouping — what every optimizer sweep brings — cost arithmetic only, and
// an observe-only maintainer (Mu = 0) never computes the baseline at all.
func TestReweightingCostsNoUnions(t *testing.T) {
	o := NewOnline(2.0, 2)
	for v := vgraph.VersionID(1); v <= 40; v++ {
		var parents []vgraph.VersionID
		if v > 1 {
			parents = []vgraph.VersionID{v - 1}
		}
		if err := o.ObserveCommit(v, parents, seqSet(int64(100+10*v))); err != nil {
			t.Fatal(err)
		}
	}
	weights := []map[vgraph.VersionID]int64{{1: 5, 40: 90}, {2: 70, 39: 3}}
	o.SetAccessWeights(weights[0])
	o.Drifted(100) // takes the unions
	want := FromVersionGroups(o.bip, o.bestGroups).WeightedCheckoutCost(weights[1])
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		o.SetAccessWeights(weights[i%2])
		o.Drifted(100)
	})
	if allocs != 0 {
		t.Errorf("SetAccessWeights+Drifted allocated %.0f times per call, want 0", allocs)
	}
	o.SetAccessWeights(weights[1])
	if got := o.BestCost(); got != want {
		t.Errorf("reweighted best cost = %g, want %g", got, want)
	}

	o.Mu = 0
	if err := o.ObserveCommit(41, []vgraph.VersionID{40}, seqSet(600)); err != nil {
		t.Fatal(err)
	}
	o.SetAccessWeights(weights[0])
	if o.Drifted(1e9) {
		t.Error("Mu = 0 reported drift")
	}
	if o.bestSized != nil {
		t.Error("Mu = 0: Drifted computed the baseline nobody compares against")
	}
}
