package partition

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/vgraph"
)

// Online incrementally maintains a partitioning as versions are committed
// (Section 4.3). Each commit either joins its best parent's partition or
// opens a new one, following the same intuition as LYRESPLIT; when the
// current checkout cost drifts beyond µ times the best cost LYRESPLIT can
// achieve under the storage budget, the migration engine is invoked.
type Online struct {
	// GammaFactor is γ/|R|: the storage budget as a multiple of the current
	// record count (e.g. 1.5 or 2).
	GammaFactor float64
	// Mu is the tolerance factor µ triggering migration.
	Mu float64
	// UseNaiveMigration switches to rebuild-from-scratch plans (baseline).
	UseNaiveMigration bool
	// RecomputeEvery controls how often C*avg is refreshed via LYRESPLIT
	// (1 = every commit, the paper's setting).
	RecomputeEvery int

	graph   *vgraph.Graph
	bip     *vgraph.Bipartite
	parents map[vgraph.VersionID][]vgraph.VersionID
	current *Partitioning
	// deltaStar is δ* from the last LYRESPLIT invocation.
	deltaStar  float64
	bestCavg   float64
	bestGroups [][]vgraph.VersionID
	commits    int

	// weights holds observed per-version checkout frequencies
	// (SetAccessWeights); nil means the paper's uniform assumption.
	weights map[vgraph.VersionID]int64
	// bestWeightedCavg caches the weighted cost of bestGroups under weights
	// (-1 = stale, recomputed on demand).
	bestWeightedCavg float64
	// bestSized is bestGroups with each group's record count and nothing
	// else (no membership sets, no Of): the bitmap unions behind the
	// weighted baseline, taken once per grouping (nil = not yet) so that new
	// weights cost arithmetic only.
	bestSized *Partitioning

	// Migrations records every migration that occurred, in commit order.
	Migrations []MigrationEvent
}

// OptionsError reports an invalid Online configuration field. Callers match
// it with errors.As to distinguish configuration mistakes from runtime
// failures.
type OptionsError struct {
	Field  string
	Value  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("partition: online: invalid %s=%s: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the maintainer's tuning fields. It catches in particular
// RecomputeEvery <= 0, which would otherwise either divide by zero or
// silently never refresh C*avg — leaving the µ-drift trigger dead.
func (o *Online) Validate() error {
	if o.RecomputeEvery <= 0 {
		return &OptionsError{
			Field:  "RecomputeEvery",
			Value:  fmt.Sprint(o.RecomputeEvery),
			Reason: "must be >= 1 (C*avg would never be refreshed and the drift trigger would never fire)",
		}
	}
	if o.GammaFactor < 1 {
		return &OptionsError{
			Field:  "GammaFactor",
			Value:  fmt.Sprintf("%g", o.GammaFactor),
			Reason: "must be >= 1 (the storage budget γ cannot be below |R|)",
		}
	}
	if o.Mu != 0 && o.Mu < 1 {
		return &OptionsError{
			Field:  "Mu",
			Value:  fmt.Sprintf("%g", o.Mu),
			Reason: "must be 0 (migration disabled) or >= 1 (a tolerance below 1 would migrate on every commit)",
		}
	}
	return nil
}

// MigrationEvent records one triggered migration, including the layouts
// before and after so callers can replay (and time) the physical move.
type MigrationEvent struct {
	AtCommit   int
	Plan       *MigrationPlan
	CavgBefore float64
	CavgAfter  float64
	Prev, Next *Partitioning
}

// NewOnline creates an online maintainer with an empty CVD.
func NewOnline(gammaFactor, mu float64) *Online {
	return &Online{
		GammaFactor:    gammaFactor,
		Mu:             mu,
		RecomputeEvery: 1,
		graph:          vgraph.New(),
		bip:            vgraph.NewBipartite(),
		parents:        make(map[vgraph.VersionID][]vgraph.VersionID),
		current:        &Partitioning{Of: make(map[vgraph.VersionID]int)},
		deltaStar:      0.5,
	}
}

// Current returns the maintained partitioning.
func (o *Online) Current() *Partitioning { return o.current }

// Graph returns the version graph built so far.
func (o *Online) Graph() *vgraph.Graph { return o.graph }

// Bipartite returns the bipartite graph built so far.
func (o *Online) Bipartite() *vgraph.Bipartite { return o.bip }

// CheckoutCost returns the current Cavg.
func (o *Online) CheckoutCost() float64 { return o.current.CheckoutCost() }

// BestCheckoutCost returns C*avg from the last LYRESPLIT run.
func (o *Online) BestCheckoutCost() float64 { return o.bestCavg }

// Commit registers version v with its parents and record list, places it
// per the online rule, and triggers migration when the tolerance is
// exceeded. It reports whether a migration happened.
func (o *Online) Commit(v vgraph.VersionID, parents []vgraph.VersionID, rids []vgraph.RecordID) (bool, error) {
	if err := o.Validate(); err != nil {
		return false, err
	}
	ws, err := o.register(v, parents, bitmap.FromSlice(recordIDsToInt64(rids)))
	if err != nil {
		return false, err
	}
	o.place(v, parents, ws)

	if o.commits%o.RecomputeEvery == 0 {
		if err := o.refreshBest(); err != nil {
			return false, err
		}
	}
	if o.Drifted(o.currentCost()) {
		return true, o.migrate()
	}
	return false, nil
}

// ObserveCommit registers a committed version without placing it in the
// shadow partitioning: the caller owns the physical layout (the store's
// partitioned model) and only wants the drift trigger — the version graph,
// the bipartite membership, and the periodic C*avg refresh. The membership
// set is shared, not copied; it must not be mutated afterwards.
func (o *Online) ObserveCommit(v vgraph.VersionID, parents []vgraph.VersionID, set *bitmap.Bitmap) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if _, err := o.register(v, parents, set); err != nil {
		return err
	}
	if o.commits%o.RecomputeEvery == 0 {
		return o.refreshBest()
	}
	return nil
}

// register adds the version to the graph and bipartite membership, returning
// the parent-overlap weights.
func (o *Online) register(v vgraph.VersionID, parents []vgraph.VersionID, set *bitmap.Bitmap) ([]int64, error) {
	o.bip.AddVersionSet(v, set)
	ws := make([]int64, len(parents))
	for i, p := range parents {
		ws[i] = o.bip.CommonRecords(p, v)
	}
	if err := o.graph.AddVersion(v, parents, o.bip.Set(v).Cardinality(), ws); err != nil {
		return nil, err
	}
	o.parents[v] = append([]vgraph.VersionID(nil), parents...)
	o.commits++
	return ws, nil
}

// Drifted applies the µ trigger to a caller-supplied checkout cost: true when
// cavg exceeds µ times the best cost of the last LYRESPLIT refresh. With
// access weights attached (SetAccessWeights), the caller should supply a
// likewise-weighted current cost, and the comparison baseline becomes the
// weighted cost of the best grouping — so drift reflects the traffic the
// store actually serves, not the uniform assumption.
func (o *Online) Drifted(cavg float64) bool {
	if o.Mu <= 0 {
		return false // observe-only: nobody compares against the baseline
	}
	best := o.BestCost()
	return best > 0 && cavg > o.Mu*best
}

// SetAccessWeights attaches observed per-version checkout frequencies (e.g.
// core.Heat.Weights); versions absent from w default to weight 1, and nil
// restores the uniform assumption. Not safe for use concurrent with Commit /
// ObserveCommit / Drifted — call it from the same goroutine that drives the
// maintainer, as the store's optimizer sweep does.
func (o *Online) SetAccessWeights(w map[vgraph.VersionID]int64) {
	o.weights = w
	o.bestWeightedCavg = -1
}

// AccessWeights returns the attached frequency map (nil when uniform).
func (o *Online) AccessWeights() map[vgraph.VersionID]int64 { return o.weights }

// BestCost returns the drift baseline: C*avg from the last LYRESPLIT refresh,
// reweighted by the attached access frequencies when present (cached until
// the weights or the best grouping change). Only a new grouping costs bitmap
// unions; new weights over the same grouping cost one pass over the versions.
func (o *Online) BestCost() float64 {
	if o.weights == nil || len(o.bestGroups) == 0 {
		return o.bestCavg
	}
	if o.bestWeightedCavg >= 0 {
		return o.bestWeightedCavg
	}
	if o.bestSized == nil {
		o.bestSized = &Partitioning{Parts: make([]Part, len(o.bestGroups))}
		for i, g := range o.bestGroups {
			o.bestSized.Parts[i] = Part{Versions: g, NumRecords: o.bip.UnionSize(g)}
		}
	}
	o.bestWeightedCavg = o.bestSized.WeightedCheckoutCost(o.weights)
	return o.bestWeightedCavg
}

// currentCost is the drift input for the self-placed (Commit) path: the
// maintained partitioning's cost under the attached weights, if any.
func (o *Online) currentCost() float64 {
	if o.weights == nil {
		return o.current.CheckoutCost()
	}
	return o.current.WeightedCheckoutCost(o.weights)
}

// BestGroups returns the version grouping of the last LYRESPLIT refresh (nil
// before the first refresh). The slice is shared; callers must not mutate it.
func (o *Online) BestGroups() [][]vgraph.VersionID { return o.bestGroups }

// DeltaStar returns δ* from the last LYRESPLIT refresh.
func (o *Online) DeltaStar() float64 { return o.deltaStar }

// Commits returns how many versions have been registered.
func (o *Online) Commits() int { return o.commits }

func recordIDsToInt64(rids []vgraph.RecordID) []int64 {
	out := make([]int64, len(rids))
	for i, r := range rids {
		out[i] = int64(r)
	}
	return out
}

// place applies the online placement rule: join the best parent's partition
// unless the shared-record weight is below δ*·|R| while storage headroom
// remains, in which case a fresh partition is opened. Partition membership
// is folded in with bitmap unions.
func (o *Online) place(v vgraph.VersionID, parents []vgraph.VersionID, ws []int64) {
	set := o.bip.Set(v)
	bestParent := vgraph.VersionID(0)
	var bestW int64 = -1
	for i, p := range parents {
		if ws[i] > bestW {
			bestParent, bestW = p, ws[i]
		}
	}
	gamma := int64(o.GammaFactor * float64(o.bip.NumRecords()))
	s := o.current.StorageCost()
	newPartition := bestW < 0 ||
		(float64(bestW) <= o.deltaStar*float64(o.bip.NumRecords()) && s < gamma)
	if newPartition {
		// Online partitions carry membership as Set only; consumers that
		// need the materialized list (the physical replayer) fall back to
		// a bipartite union when Records is nil.
		idx := len(o.current.Parts)
		o.current.Parts = append(o.current.Parts, Part{
			Versions:   []vgraph.VersionID{v},
			Set:        set.Clone(),
			NumRecords: set.Cardinality(),
		})
		o.current.Of[v] = idx
		return
	}
	k := o.current.Of[bestParent]
	part := &o.current.Parts[k]
	part.Versions = append(part.Versions, v)
	merged := part.Set
	if merged == nil {
		merged = o.bip.UnionSet(part.Versions[:len(part.Versions)-1])
	}
	merged = bitmap.Or(merged, set)
	part.Set = merged
	part.Records = nil // stale after the merge; Set is authoritative
	part.NumRecords = merged.Cardinality()
	o.current.Of[v] = k
}

// refreshBest reruns LYRESPLIT under the current budget to update C*avg and
// δ*.
func (o *Online) refreshBest() error {
	gamma := int64(o.GammaFactor * float64(o.bip.NumRecords()))
	ls := &LyreSplit{Tree: o.graph.ToTree()}
	res, err := ls.Solve(gamma)
	if err != nil {
		return fmt.Errorf("partition: online: %w", err)
	}
	o.bestCavg = res.EstCheckout
	o.deltaStar = res.Delta
	o.bestGroups = res.Groups
	o.bestWeightedCavg = -1
	o.bestSized = nil
	return nil
}

// migrate reorganizes the current partitioning to LYRESPLIT's best grouping
// using the configured migration planner.
func (o *Online) migrate() error {
	gamma := int64(o.GammaFactor * float64(o.bip.NumRecords()))
	ls := &LyreSplit{Tree: o.graph.ToTree()}
	res, err := ls.Solve(gamma)
	if err != nil {
		return err
	}
	next := FromVersionGroups(o.bip, res.Groups)
	var plan *MigrationPlan
	if o.UseNaiveMigration {
		plan = PlanNaiveMigration(next)
	} else {
		plan = PlanMigration(o.bip, o.current, next)
	}
	ev := MigrationEvent{
		AtCommit:   o.commits,
		Plan:       plan,
		CavgBefore: o.current.CheckoutCost(),
		CavgAfter:  next.CheckoutCost(),
		Prev:       o.current,
		Next:       next,
	}
	o.Migrations = append(o.Migrations, ev)
	o.current = next
	o.deltaStar = res.Delta
	o.bestCavg = res.EstCheckout
	o.bestGroups = res.Groups
	o.bestWeightedCavg = -1
	o.bestSized = nil
	return nil
}
