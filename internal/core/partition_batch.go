package core

import (
	"fmt"
	"sort"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/partition"
	"orpheusdb/internal/vgraph"
)

// Batched partition migration. A full LYRESPLIT migration can move millions
// of rows; executing it as one critical section would stall checkouts for the
// whole rebuild. Instead the migration is planned as a sequence of bounded
// batches, each of which transforms one consistent layout into another: after
// every batch, every version's rlist is fully covered by its partition's data
// table, so checkouts interleaved between batches always succeed.
//
// Batches are *anchor-addressed and deterministic from state*: a batch never
// names a physical partition id. It names an anchor version, and the target
// partition is resolved as the anchor's current partition at apply time
// (anchor 0 means "create a fresh partition"). Applying the same batch
// sequence to the same starting state therefore reproduces the same layout —
// which is exactly what WAL replay does after a crash mid-migration. Commits
// that land between batches only ever add new versions (existing versions are
// never remapped outside a batch), so a plan stays applicable under traffic:
// anchors keep resolving, garbage collection re-derives the needed set at
// apply time, and drop-empty only removes partitions no version lives in.
//
// Batch order within a plan: all assign/preload batches first (rows are only
// ever added, so every record stays fetchable from its old partition), then
// gc batches (which delete only rows no resident version needs), then a
// single drop-empty.

// PartitionBatchKind discriminates migration batch types.
type PartitionBatchKind uint8

const (
	// PartitionBatchAssign remaps Versions onto the anchor's partition
	// (anchor 0: a fresh partition), first inserting whatever subset of
	// Members the target's data table is missing.
	PartitionBatchAssign PartitionBatchKind = 1
	// PartitionBatchPreload copies the missing subset of Members into the
	// anchor's partition without remapping any version. It bounds the row
	// volume of a later oversized assign.
	PartitionBatchPreload PartitionBatchKind = 2
	// PartitionBatchGC deletes, from the anchor's partition, the subset of
	// Members that no version currently resident there needs. The needed set
	// is recomputed at apply time, so commits landing mid-migration are safe.
	PartitionBatchGC PartitionBatchKind = 3
	// PartitionBatchDropEmpty drops every partition no version maps to and
	// refreshes the record-count statistics. Always the final batch.
	PartitionBatchDropEmpty PartitionBatchKind = 4
)

// String names the kind for logs and status payloads.
func (k PartitionBatchKind) String() string {
	switch k {
	case PartitionBatchAssign:
		return "assign"
	case PartitionBatchPreload:
		return "preload"
	case PartitionBatchGC:
		return "gc"
	case PartitionBatchDropEmpty:
		return "drop-empty"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PartitionBatch is one bounded, WAL-logged step of a layout migration.
type PartitionBatch struct {
	Kind   PartitionBatchKind
	Anchor vgraph.VersionID // target = anchor's partition; 0 = fresh (assign only)
	// Versions lists the versions an assign batch remaps.
	Versions []vgraph.VersionID
	// Members is the batch's record set: the coverage an assign target must
	// gain, the rows a preload stages, or a gc's deletion candidates.
	Members *bitmap.Bitmap
}

// chunkSet splits a record set into consecutive chunks of at most n values.
func chunkSet(set *bitmap.Bitmap, n int64) []*bitmap.Bitmap {
	if n <= 0 || set.Cardinality() <= n {
		return []*bitmap.Bitmap{set}
	}
	var out []*bitmap.Bitmap
	buf := make([]int64, 0, n)
	set.Iterate(func(v int64) bool {
		buf = append(buf, v)
		if int64(len(buf)) == n {
			out = append(out, bitmap.FromSorted(buf))
			buf = buf[:0]
		}
		return true
	})
	if len(buf) > 0 {
		out = append(out, bitmap.FromSorted(buf))
	}
	return out
}

// PlanPartitionBatches turns a target version grouping into an ordered batch
// sequence. batchRows bounds the records any single batch inserts or deletes
// (<= 0: unbounded). Planning is read-only; the plan is valid as long as no
// other migration runs, even with commits landing in between.
func (m *partitionedRlist) PlanPartitionBatches(groups [][]vgraph.VersionID, batchRows int64) ([]PartitionBatch, error) {
	seen := make(map[vgraph.VersionID]bool, len(m.partOf))
	for _, grp := range groups {
		for _, v := range grp {
			if _, ok := m.rlists[v]; !ok {
				return nil, fmt.Errorf("core: %s: plan names unknown version %d", m.cvd, v)
			}
			if seen[v] {
				return nil, fmt.Errorf("core: %s: plan places version %d twice", m.cvd, v)
			}
			seen[v] = true
		}
	}
	for v := range m.partOf {
		if !seen[v] {
			return nil, fmt.Errorf("core: %s: plan omits version %d", m.cvd, v)
		}
	}

	type groupPlan struct {
		versions []vgraph.VersionID
		want     *bitmap.Bitmap
		target   int              // current pid the group keeps, or -1 for fresh
		anchor   vgraph.VersionID // group member resident in target (seed for fresh)
	}
	plans := make([]groupPlan, 0, len(groups))
	claimed := make(map[int]bool, len(groups))
	for _, grp := range groups {
		gp := groupPlan{versions: append([]vgraph.VersionID(nil), grp...)}
		sort.Slice(gp.versions, func(i, j int) bool { return gp.versions[i] < gp.versions[j] })
		sets := make([]*bitmap.Bitmap, len(gp.versions))
		for i, v := range gp.versions {
			sets[i] = m.rlists[v]
		}
		gp.want = bitmap.OrAll(sets...)
		// Keep the resident partition with the largest record overlap; the
		// group can only keep a partition one of its versions lives in (the
		// assign batches need a resident anchor).
		gp.target = -1
		var bestOverlap int64 = -1
		for _, v := range gp.versions {
			pid := m.partOf[v]
			if claimed[pid] {
				continue
			}
			if ov := gp.want.AndCardinality(m.partRecs[pid]); ov > bestOverlap {
				gp.target, gp.anchor, bestOverlap = pid, v, ov
			}
		}
		if gp.target >= 0 {
			claimed[gp.target] = true
			// Anchor on the smallest resident version for determinism.
			for _, v := range gp.versions {
				if m.partOf[v] == gp.target {
					gp.anchor = v
					break
				}
			}
		} else {
			// Fresh partition: seed with the smallest-rlist version so the
			// unavoidable unbatchable first insert is as small as possible.
			seed := gp.versions[0]
			for _, v := range gp.versions[1:] {
				if m.rlists[v].Cardinality() < m.rlists[seed].Cardinality() {
					seed = v
				}
			}
			gp.anchor = seed
		}
		plans = append(plans, gp)
	}

	var batches []PartitionBatch
	for _, gp := range plans {
		var cover *bitmap.Bitmap
		rest := make([]vgraph.VersionID, 0, len(gp.versions))
		if gp.target >= 0 {
			cover = m.partRecs[gp.target].Clone()
			for _, v := range gp.versions {
				if m.partOf[v] != gp.target {
					rest = append(rest, v)
				}
			}
		} else {
			// Seed assign creates the partition and moves the seed version.
			seedSet := m.rlists[gp.anchor]
			batches = append(batches, PartitionBatch{
				Kind:     PartitionBatchAssign,
				Anchor:   0,
				Versions: []vgraph.VersionID{gp.anchor},
				Members:  seedSet,
			})
			cover = seedSet.Clone()
			for _, v := range gp.versions {
				if v != gp.anchor {
					rest = append(rest, v)
				}
			}
		}
		var curVers []vgraph.VersionID
		var curMembers *bitmap.Bitmap
		var curNew int64
		flush := func() {
			if len(curVers) == 0 {
				return
			}
			batches = append(batches, PartitionBatch{
				Kind:     PartitionBatchAssign,
				Anchor:   gp.anchor,
				Versions: curVers,
				Members:  curMembers,
			})
			curVers, curMembers, curNew = nil, nil, 0
		}
		for _, v := range rest {
			missing := bitmap.AndNot(m.rlists[v], cover)
			n := missing.Cardinality()
			if batchRows > 0 && n > batchRows {
				// Oversized version: stage its rows through preload batches
				// first, then assign it with nothing left to insert.
				flush()
				for _, chunk := range chunkSet(missing, batchRows) {
					batches = append(batches, PartitionBatch{
						Kind:    PartitionBatchPreload,
						Anchor:  gp.anchor,
						Members: chunk,
					})
				}
				n = 0
			} else if batchRows > 0 && len(curVers) > 0 && curNew+n > batchRows {
				flush()
			}
			curVers = append(curVers, v)
			curMembers = bitmap.Or(curMembers, m.rlists[v])
			curNew += n
			cover = bitmap.Or(cover, m.rlists[v])
		}
		flush()
	}
	// GC after all inserts: until here every record is still fetchable from
	// its pre-migration partition.
	for _, gp := range plans {
		if gp.target < 0 {
			continue
		}
		candidates := bitmap.AndNot(m.partRecs[gp.target], gp.want)
		if candidates.IsEmpty() {
			continue
		}
		for _, chunk := range chunkSet(candidates, batchRows) {
			batches = append(batches, PartitionBatch{
				Kind:    PartitionBatchGC,
				Anchor:  gp.anchor,
				Members: chunk,
			})
		}
	}
	batches = append(batches, PartitionBatch{Kind: PartitionBatchDropEmpty})
	return batches, nil
}

// anchorPartition resolves a batch's target partition from its anchor.
func (m *partitionedRlist) anchorPartition(anchor vgraph.VersionID) (int, error) {
	pid, ok := m.partOf[anchor]
	if !ok {
		return 0, fmt.Errorf("core: %s: batch anchor version %d has no partition", m.cvd, anchor)
	}
	return pid, nil
}

// ApplyPartitionBatch executes one migration batch against the live layout,
// returning the number of data rows inserted or deleted. The apply is a pure
// function of the batch and the current model state, which is what makes WAL
// replay of a logged batch sequence converge to the live layout.
func (m *partitionedRlist) ApplyPartitionBatch(b PartitionBatch) (int64, error) {
	switch b.Kind {
	case PartitionBatchAssign:
		return m.applyAssign(b)
	case PartitionBatchPreload:
		pid, err := m.anchorPartition(b.Anchor)
		if err != nil {
			return 0, err
		}
		return m.insertMissing(pid, b.Members)
	case PartitionBatchGC:
		return m.applyGC(b)
	case PartitionBatchDropEmpty:
		return 0, m.applyDropEmpty()
	}
	return 0, fmt.Errorf("core: %s: unknown partition batch kind %d", m.cvd, b.Kind)
}

// insertMissing copies the subset of want the partition's data table lacks
// from wherever it currently lives, returning the row count inserted.
func (m *partitionedRlist) insertMissing(pid int, want *bitmap.Bitmap) (int64, error) {
	missing := bitmap.AndNot(want, m.partRecs[pid])
	if missing.IsEmpty() {
		return 0, nil
	}
	rows, err := m.fetchRowsAcross(missing)
	if err != nil {
		return 0, err
	}
	dt, err := m.db.MustTable(m.dataName(pid))
	if err != nil {
		return 0, err
	}
	for _, row := range rows {
		if _, err := dt.Insert(row); err != nil {
			return 0, err
		}
	}
	m.partRecs[pid] = bitmap.Or(m.partRecs[pid], missing)
	m.storageRecs += missing.Cardinality()
	return int64(len(rows)), nil
}

func (m *partitionedRlist) applyAssign(b PartitionBatch) (int64, error) {
	var pid int
	if b.Anchor != 0 {
		p, err := m.anchorPartition(b.Anchor)
		if err != nil {
			return 0, err
		}
		pid = p
	} else {
		p, err := m.createPartition()
		if err != nil {
			return 0, err
		}
		pid = p
	}
	moved, err := m.insertMissing(pid, b.Members)
	if err != nil {
		return 0, err
	}
	vt, err := m.db.MustTable(m.versionName(pid))
	if err != nil {
		return 0, err
	}
	mt, err := m.db.MustTable(m.mapName())
	if err != nil {
		return 0, err
	}
	for _, v := range b.Versions {
		set, ok := m.rlists[v]
		if !ok {
			return 0, fmt.Errorf("core: %s: assign batch names unknown version %d", m.cvd, v)
		}
		if !bitmap.AndNot(set, m.partRecs[pid]).IsEmpty() {
			return 0, fmt.Errorf("core: %s: assign batch under-covers version %d", m.cvd, v)
		}
		oldPid := m.partOf[v]
		if oldPid == pid {
			continue
		}
		oldVt, err := m.db.MustTable(m.versionName(oldPid))
		if err != nil {
			return 0, err
		}
		oldVt.DeleteBatch(oldVt.Index("vid").Lookup(engine.IntValue(int64(v))))
		if _, err := vt.Insert(engine.Row{
			engine.IntValue(int64(v)),
			engine.BitmapValue(set),
		}); err != nil {
			return 0, err
		}
		mrow := engine.Row{engine.IntValue(int64(v)), engine.IntValue(int64(pid))}
		if ids := mt.Index("vid").Lookup(engine.IntValue(int64(v))); len(ids) > 0 {
			if err := mt.Update(ids[0], mrow); err != nil {
				return 0, err
			}
		} else if _, err := mt.Insert(mrow); err != nil {
			return 0, err
		}
		m.partOf[v] = pid
	}
	return moved, nil
}

func (m *partitionedRlist) applyGC(b PartitionBatch) (int64, error) {
	pid, err := m.anchorPartition(b.Anchor)
	if err != nil {
		return 0, err
	}
	// The needed set is derived from the partition's residents *now*, so
	// versions committed after planning keep their records.
	var needed []*bitmap.Bitmap
	for v, p := range m.partOf {
		if p == pid {
			needed = append(needed, m.rlists[v])
		}
	}
	del := bitmap.AndNot(bitmap.And(b.Members, m.partRecs[pid]), bitmap.OrAll(needed...))
	if del.IsEmpty() {
		return 0, nil
	}
	dt, err := m.db.MustTable(m.dataName(pid))
	if err != nil {
		return 0, err
	}
	var drop []engine.RowID
	pr := bitmap.NewProber(del)
	dt.Scan(func(id engine.RowID, row engine.Row) bool {
		if pr.Contains(row[0].I) {
			drop = append(drop, id)
		}
		return true
	})
	dt.DeleteBatch(drop)
	// Tombstones still occupy heap slots the checkout probe scan walks, so
	// a partition that repeatedly shed records would keep paying scan cost
	// for rows long gone. Once a quarter of the heap is dead, rewrite it.
	if dt.NumDeleted()*4 > dt.NumRows() {
		if err := dt.Compact(); err != nil {
			return 0, err
		}
	}
	m.partRecs[pid] = bitmap.AndNot(m.partRecs[pid], del)
	m.storageRecs -= del.Cardinality()
	return int64(len(drop)), nil
}

func (m *partitionedRlist) applyDropEmpty() error {
	if len(m.partOf) == 0 {
		return nil // keep the bootstrap partition
	}
	resident := make(map[int]bool, len(m.partIDs))
	for _, p := range m.partOf {
		resident[p] = true
	}
	for _, pid := range append([]int(nil), m.partIDs...) {
		if !resident[pid] {
			if err := m.dropPartition(pid); err != nil {
				return err
			}
		}
	}
	m.totalRecords = m.countMaxRid()
	return nil
}

// PartitionStat describes one live physical partition.
type PartitionStat struct {
	ID       int   `json:"id"`
	Versions int   `json:"versions"`
	Records  int64 `json:"records"`
}

// PartitionStatus snapshots the partitioned layout for status endpoints.
type PartitionStatus struct {
	Partitions     []PartitionStat `json:"partitions"`
	StorageRecords int64           `json:"storage_records"`
	TotalRecords   int64           `json:"total_records"`
	CheckoutCost   float64         `json:"avg_checkout_records"`
	DeltaStar      float64         `json:"delta_star"`
	GammaRecords   int64           `json:"gamma_records"`
}

// PartitionStatus snapshots the current layout.
func (m *partitionedRlist) PartitionStatus() *PartitionStatus {
	st := &PartitionStatus{
		StorageRecords: m.storageRecs,
		TotalRecords:   m.totalRecords,
		CheckoutCost:   m.CheckoutCost(),
		DeltaStar:      m.deltaStar,
		GammaRecords:   m.gammaRecords,
	}
	counts := make(map[int]int, len(m.partIDs))
	for _, p := range m.partOf {
		counts[p]++
	}
	for _, pid := range m.partIDs {
		st.Partitions = append(st.Partitions, PartitionStat{
			ID:       pid,
			Versions: counts[pid],
			Records:  m.partRecs[pid].Cardinality(),
		})
	}
	return st
}

// RepartitionPlan is a solved and planned batched migration, ready to be
// executed one batch at a time under the dataset's critical section.
type RepartitionPlan struct {
	Delta       float64
	Gamma       int64
	Groups      int
	EstStorage  int64
	EstCheckout float64
	// Cavg is the layout's checkout cost when the plan was made — with
	// EstCheckout, the two sides of the µ-drift check.
	Cavg      float64
	SolveTime time.Duration
	// Batches is empty when a maintenance check found the layout within
	// tolerance: there is nothing to migrate, only δ* and γ to refresh.
	Batches []PartitionBatch
}

// solve is the one way a target layout is chosen: rebuild the version tree,
// hand it to run together with the storage budget γ = gammaFactor·|R| in
// records, and plan the batched migration to the grouping that comes back. With mu > 0 it is the periodic check of
// Section 4.3: a layout whose cost is within mu times the solver's best gets
// a plan without batches. Read-only; batchRows is PlanPartitionBatches'.
func (c *CVD) solve(gammaFactor, mu float64, batchRows int64, run func(t *vgraph.Tree, gamma int64) (*partition.SolveResult, error)) (*RepartitionPlan, error) {
	g, err := c.vm.graph()
	if err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("core: %s: nothing to repartition", c.name)
	}
	gamma := int64(gammaFactor * float64(c.rm.nextR-1))
	t0 := time.Now()
	res, err := run(g.ToTree(), gamma)
	if err != nil {
		return nil, err
	}
	plan := &RepartitionPlan{
		Delta:       res.Delta,
		Gamma:       gamma,
		Groups:      len(res.Groups),
		EstStorage:  res.EstStorage,
		EstCheckout: res.EstCheckout,
		Cavg:        c.model.CheckoutCost(),
	}
	if mu <= 0 || (plan.EstCheckout > 0 && plan.Cavg > mu*plan.EstCheckout) {
		if plan.Batches, err = c.model.PlanPartitionBatches(res.Groups, batchRows); err != nil {
			return nil, err
		}
	}
	plan.SolveTime = time.Since(t0)
	return plan, nil
}

// lyreSplit is solve's run for the paper's uniform checkout cost: the binary
// search on δ for the cheapest grouping within the budget.
func lyreSplit(t *vgraph.Tree, gamma int64) (*partition.SolveResult, error) {
	return (&partition.LyreSplit{Tree: t}).Solve(gamma)
}

// PlanRepartition solves LYRESPLIT under γ = gammaFactor·|R| and plans the
// batched migration to the resulting grouping.
func (c *CVD) PlanRepartition(gammaFactor float64, batchRows int64) (*RepartitionPlan, error) {
	return c.solve(gammaFactor, 0, batchRows, lyreSplit)
}

// PlanMaintenance is PlanRepartition behind the tolerance check of Section
// 4.3: the plan has batches only when Cavg > mu·C*avg.
func (c *CVD) PlanMaintenance(gammaFactor, mu float64, batchRows int64) (*RepartitionPlan, error) {
	return c.solve(gammaFactor, mu, batchRows, lyreSplit)
}

// ApplyPartitionBatch executes one planned batch against the live layout.
func (c *CVD) ApplyPartitionBatch(b PartitionBatch) (int64, error) {
	return c.model.ApplyPartitionBatch(b)
}

// CompleteRepartition ends a plan's execution: online placement of later
// commits adopts the plan's δ* and γ. The pair lives in memory only — a
// reopened store places every commit beside its best parent until the next
// plan completes.
func (c *CVD) CompleteRepartition(p *RepartitionPlan) {
	c.model.SetOnlineParams(p.Delta, p.Gamma)
}

// ApplyRepartition executes a whole plan back to back and completes it,
// returning the rows moved. It takes no lock and logs nothing: it is for
// callers that own the CVD outright — replay of a legacy optimize record,
// tools, tests. A store under traffic runs the batches one critical section
// at a time instead (Dataset.Optimize).
func (c *CVD) ApplyRepartition(p *RepartitionPlan) (int64, error) {
	var moved int64
	for _, b := range p.Batches {
		n, err := c.ApplyPartitionBatch(b)
		if err != nil {
			return moved, err
		}
		moved += n
	}
	c.CompleteRepartition(p)
	return moved, nil
}

// PartitionStatus snapshots the partitioned layout.
func (c *CVD) PartitionStatus() *PartitionStatus { return c.model.PartitionStatus() }

// WeightedCheckoutCost is the layout's checkout cost Cw = Σ fi·|R(part(vi))| /
// Σ fi under observed per-version checkout frequencies (Appendix C.2);
// versions missing from freq weigh 1.
func (c *CVD) WeightedCheckoutCost(freq map[vgraph.VersionID]int64) float64 {
	return c.model.WeightedCheckoutCost(freq)
}
