package core

import (
	"fmt"
	"sort"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// ModelKind names a data model as the CVD catalog records it.
type ModelKind string

// PartitionedRlistModel is the one data model core serves: the hybrid
// representation of Section 4, the split-by-rlist layout broken into
// partitions so a checkout touches only the records of its own partition.
// Split-by-rlist is its one-partition case, which is where every CVD starts.
const PartitionedRlistModel ModelKind = "partitioned-rlist"

// partitionedRlist stores one (data, versioning) table pair per partition,
// a version→partition map, and online-maintenance parameters (δ*, γ).
// Version membership (rlists) and per-partition record coverage (partRecs)
// are compressed bitmaps: placement overlaps, migration deltas, and
// partition coverage are all bitmap algebra. rlists entries are immutable
// once stored; partRecs bitmaps are private to the model and mutated in
// place.
type partitionedRlist struct {
	db   *engine.DB
	cvd  string
	cols []engine.Column // rid + data attributes

	partOf   map[vgraph.VersionID]int
	partIDs  []int // live physical partition ids
	nextPart int
	rlists   map[vgraph.VersionID]*bitmap.Bitmap
	partRecs map[int]*bitmap.Bitmap

	// deltaStar and gammaRecords implement the online placement rule: a new
	// version opens its own partition when it shares at most δ*·|R| records
	// with its best parent and storage is under γ. Zeroes disable splitting
	// (every version joins its best parent's partition) until a repartitioning
	// completes and sets them; they are never persisted.
	deltaStar    float64
	gammaRecords int64
	totalRecords int64 // |R|: distinct records across the CVD
	storageRecs  int64 // S = Σ|Rk|
}

func (m *partitionedRlist) dataName(p int) string {
	return fmt.Sprintf("%s_part%d_data", m.cvd, p)
}
func (m *partitionedRlist) versionName(p int) string {
	return fmt.Sprintf("%s_part%d_version", m.cvd, p)
}
func (m *partitionedRlist) mapName() string { return m.cvd + "__partmap" }

func (m *partitionedRlist) Init(cols []engine.Column) error {
	m.cols = dataColumns(cols)
	m.partOf = make(map[vgraph.VersionID]int)
	m.rlists = make(map[vgraph.VersionID]*bitmap.Bitmap)
	m.partRecs = make(map[int]*bitmap.Bitmap)
	if _, err := m.createMap(); err != nil {
		return err
	}
	_, err := m.createPartition()
	return err
}

// createMap creates the version→partition map table.
func (m *partitionedRlist) createMap() (*engine.Table, error) {
	t, err := m.db.CreateTable(m.mapName(), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "pid", Type: engine.KindInt},
	})
	if err != nil {
		return nil, err
	}
	return t, t.SetPrimaryKey("vid")
}

// createPartition allocates a new physical partition and returns its id.
func (m *partitionedRlist) createPartition() (int, error) {
	p := m.nextPart
	m.nextPart++
	dt, err := m.db.CreateTable(m.dataName(p), m.cols)
	if err != nil {
		return 0, err
	}
	if err := dt.SetPrimaryKey("rid"); err != nil {
		return 0, err
	}
	vt, err := m.db.CreateTable(m.versionName(p), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "rlist", Type: engine.KindBitmap},
	})
	if err != nil {
		return 0, err
	}
	if err := vt.SetPrimaryKey("vid"); err != nil {
		return 0, err
	}
	m.partIDs = append(m.partIDs, p)
	m.partRecs[p] = bitmap.New()
	return p, nil
}

func (m *partitionedRlist) dropPartition(p int) error {
	for _, n := range []string{m.dataName(p), m.versionName(p)} {
		if m.db.HasTable(n) {
			if err := m.db.DropTable(n); err != nil {
				return err
			}
		}
	}
	m.storageRecs -= m.partRecs[p].Cardinality()
	delete(m.partRecs, p)
	for i, id := range m.partIDs {
		if id == p {
			m.partIDs = append(m.partIDs[:i], m.partIDs[i+1:]...)
			break
		}
	}
	return nil
}

// SetOnlineParams configures the online placement rule (δ*, γ in records).
func (m *partitionedRlist) SetOnlineParams(deltaStar float64, gammaRecords int64) {
	m.deltaStar = deltaStar
	m.gammaRecords = gammaRecords
}

// PartitionOf returns the physical partition holding a version.
func (m *partitionedRlist) PartitionOf(v vgraph.VersionID) (int, bool) {
	p, ok := m.partOf[v]
	return p, ok
}

// CheckoutCost returns the current Cavg = Σ|Vk||Rk| / n in records.
func (m *partitionedRlist) CheckoutCost() float64 {
	if len(m.partOf) == 0 {
		return 0
	}
	counts := make(map[int]int64, len(m.partIDs))
	for _, p := range m.partOf {
		counts[p]++
	}
	var num int64
	for p, n := range counts {
		num += n * m.partRecs[p].Cardinality()
	}
	return float64(num) / float64(len(m.partOf))
}

// WeightedCheckoutCost returns Cw = Σ fi·|R(part(vi))| / Σ fi under observed
// per-version checkout frequencies (Appendix C.2); versions missing from
// freq default to weight 1, and a nil freq degenerates to CheckoutCost.
func (m *partitionedRlist) WeightedCheckoutCost(freq map[vgraph.VersionID]int64) float64 {
	if len(m.partOf) == 0 {
		return 0
	}
	var num, den int64
	for v, p := range m.partOf {
		f, ok := freq[v]
		if !ok {
			f = 1
		}
		num += f * m.partRecs[p].Cardinality()
		den += f
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Commit stores version vid. all lists every record in the version (those
// its partition lacks must carry their data); ridSet is the version's
// canonical rlist bitmap, shared with the version metadata and never mutated.
func (m *partitionedRlist) Commit(vid vgraph.VersionID, parents []vgraph.VersionID, all []Record, ridSet *bitmap.Bitmap) error {
	// Online placement (Section 4.3): join the best parent's partition
	// unless the overlap is small while storage headroom remains. Overlaps
	// are bitmap intersection cardinalities against each parent's rlist.
	target := -1
	if len(parents) > 0 {
		var bestParent vgraph.VersionID
		var bestW int64 = -1
		for _, p := range parents {
			if w := m.rlists[p].AndCardinality(ridSet); w > bestW {
				bestParent, bestW = p, w
			}
		}
		openNew := m.deltaStar > 0 &&
			float64(bestW) <= m.deltaStar*float64(m.totalRecords) &&
			m.storageRecs < m.gammaRecords
		if !openNew {
			target = m.partOf[bestParent]
		}
	} else if len(m.partOf) == 0 && len(m.partIDs) > 0 {
		// First commit lands in the initial partition.
		target = m.partIDs[0]
	}
	if target < 0 {
		p, err := m.createPartition()
		if err != nil {
			return err
		}
		target = p
	}
	return m.storeVersion(target, vid, all, ridSet)
}

// storeVersion inserts the version's missing records and its rlist tuple
// into partition p.
func (m *partitionedRlist) storeVersion(p int, vid vgraph.VersionID, all []Record, ridSet *bitmap.Bitmap) error {
	dt, err := m.db.MustTable(m.dataName(p))
	if err != nil {
		return err
	}
	vt, err := m.db.MustTable(m.versionName(p))
	if err != nil {
		return err
	}
	recs := m.partRecs[p]
	for _, r := range all {
		rid := int64(r.RID)
		if recs.Contains(rid) {
			continue
		}
		if r.Data == nil {
			return fmt.Errorf("core: %s: partition %d missing data for record %d", m.cvd, p, rid)
		}
		if _, err := dt.Insert(rowWithRID(r)); err != nil {
			return err
		}
		recs.Add(rid)
		m.storageRecs++
	}
	if _, err := vt.Insert(engine.Row{
		engine.IntValue(int64(vid)),
		engine.BitmapValue(ridSet),
	}); err != nil {
		return err
	}
	mt, err := m.db.MustTable(m.mapName())
	if err != nil {
		return err
	}
	if _, err := mt.Insert(engine.Row{
		engine.IntValue(int64(vid)),
		engine.IntValue(int64(p)),
	}); err != nil {
		return err
	}
	m.partOf[vid] = p
	m.rlists[vid] = ridSet
	if mx, ok := ridSet.Max(); ok && mx > m.totalRecords {
		m.totalRecords = mx
	}
	return nil
}

// countMaxRid recomputes |R| as the highest rid seen; rids are allocated
// densely by the record manager, so this matches the CVD-wide record count
// the online placement rule compares against.
func (m *partitionedRlist) countMaxRid() int64 {
	var maxRid int64
	for _, recs := range m.partRecs {
		if mx, ok := recs.Max(); ok && mx > maxRid {
			maxRid = mx
		}
	}
	return maxRid
}

func (m *partitionedRlist) Checkout(vid vgraph.VersionID) ([]Record, error) {
	p, ok := m.partOf[vid]
	if !ok {
		return nil, fmt.Errorf("core: %s: no version %d", m.cvd, vid)
	}
	dt, err := m.db.MustTable(m.dataName(p))
	if err != nil {
		return nil, err
	}
	vt, err := m.db.MustTable(m.versionName(p))
	if err != nil {
		return nil, err
	}
	ids := vt.Index("vid").Lookup(engine.IntValue(int64(vid)))
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: %s: partition %d lost version %d", m.cvd, p, vid)
	}
	set := membershipValue(vt.Get(ids[0])[1])
	rows, err := engine.JoinRidsSet(dt, 0, set, m.db.JoinMethodSetting())
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(rows))
	for i, row := range rows {
		out[i] = recordFromRow(row)
	}
	return out, nil
}

// FetchRecordSet materializes a membership set — diffs, merges and
// multi-version scans drive it — without checking out any version.
func (m *partitionedRlist) FetchRecordSet(set *bitmap.Bitmap) ([]Record, error) {
	out := make([]Record, 0, set.Cardinality())
	err := m.scanSet(set, func(row engine.Row) { out = append(out, recordFromRow(row)) })
	return out, err
}

// fetchRowsAcross clones the data rows of a record set from the current
// layout. Migration batches use it to stage the rows a target partition is
// missing.
func (m *partitionedRlist) fetchRowsAcross(want *bitmap.Bitmap) ([]engine.Row, error) {
	out := make([]engine.Row, 0, want.Cardinality())
	err := m.scanSet(want, func(row engine.Row) { out = append(out, engine.CloneRow(row)) })
	return out, err
}

// scanSet hands fn the stored (rid, data...) row of every record in set,
// probing each partition's data table with the sub-bitmap it covers; records
// duplicated across partitions are visited once.
func (m *partitionedRlist) scanSet(set *bitmap.Bitmap, fn func(engine.Row)) error {
	remaining := set
	for _, p := range m.partIDs {
		if remaining.IsEmpty() {
			break
		}
		sub := bitmap.And(remaining, m.partRecs[p])
		if sub.IsEmpty() {
			continue
		}
		dt, err := m.db.MustTable(m.dataName(p))
		if err != nil {
			return err
		}
		rows, err := engine.JoinRidsSet(dt, 0, sub, m.db.JoinMethodSetting())
		if err != nil {
			return err
		}
		for _, row := range rows {
			fn(row)
		}
		remaining = bitmap.AndNot(remaining, sub)
	}
	if !remaining.IsEmpty() {
		mn, _ := remaining.Min()
		return fmt.Errorf("core: %s: record %d not found in any partition", m.cvd, mn)
	}
	return nil
}

func (m *partitionedRlist) StorageBytes() int64 {
	var n int64
	for _, p := range m.partIDs {
		if t := m.db.Table(m.dataName(p)); t != nil {
			n += t.SizeBytes()
		}
		if t := m.db.Table(m.versionName(p)); t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}

func (m *partitionedRlist) AddColumn(c engine.Column) error {
	m.cols = append(m.cols, c)
	for _, p := range m.partIDs {
		dt, err := m.db.MustTable(m.dataName(p))
		if err != nil {
			return err
		}
		if err := dt.AddColumn(c); err != nil {
			return err
		}
	}
	return nil
}

func (m *partitionedRlist) AlterColumnType(name string, k engine.Kind) error {
	for i := range m.cols {
		if m.cols[i].Name == name {
			m.cols[i].Type = engine.MoreGeneral(m.cols[i].Type, k)
		}
	}
	for _, p := range m.partIDs {
		dt, err := m.db.MustTable(m.dataName(p))
		if err != nil {
			return err
		}
		if err := dt.AlterColumnType(name, k); err != nil {
			return err
		}
	}
	return nil
}

func (m *partitionedRlist) Drop() error {
	for _, p := range append([]int(nil), m.partIDs...) {
		if err := m.dropPartition(p); err != nil {
			return err
		}
	}
	if m.db.HasTable(m.mapName()) {
		return m.db.DropTable(m.mapName())
	}
	return nil
}

// MembershipBytes reports the per-partition versioning tables plus the
// version→partition map footprint.
func (m *partitionedRlist) MembershipBytes() int64 {
	var n int64
	for _, p := range m.partIDs {
		if t := m.db.Table(m.versionName(p)); t != nil {
			n += t.SizeBytes()
		}
	}
	if t := m.db.Table(m.mapName()); t != nil {
		n += t.SizeBytes()
	}
	return n
}

// reload rebuilds the model's in-memory state from its tables after a
// database reload.
func (m *partitionedRlist) reload(cols []engine.Column) error {
	m.cols = dataColumns(cols)
	m.partOf = make(map[vgraph.VersionID]int)
	m.rlists = make(map[vgraph.VersionID]*bitmap.Bitmap)
	m.partRecs = make(map[int]*bitmap.Bitmap)
	m.partIDs = nil
	mt, err := m.db.MustTable(m.mapName())
	if err != nil {
		return err
	}
	mt.Scan(func(_ engine.RowID, row engine.Row) bool {
		m.partOf[vgraph.VersionID(row[0].I)] = int(row[1].I)
		return true
	})
	seenPart := make(map[int]bool)
	for _, p := range m.partOf {
		seenPart[p] = true
	}
	// Partition 0 exists even before the first commit.
	if m.db.HasTable(m.dataName(0)) {
		seenPart[0] = true
	}
	for p := range seenPart {
		m.partIDs = append(m.partIDs, p)
	}
	// Keep the partition walk order stable across reloads: cross-partition
	// fetches visit partIDs in order, and WAL replay of migration batches must
	// reproduce the live walk exactly.
	sort.Ints(m.partIDs)
	for _, p := range m.partIDs {
		if p >= m.nextPart {
			m.nextPart = p + 1
		}
		recs := bitmap.New()
		dt, err := m.db.MustTable(m.dataName(p))
		if err != nil {
			return err
		}
		dt.Scan(func(_ engine.RowID, row engine.Row) bool {
			recs.Add(row[0].I)
			return true
		})
		recs.Optimize()
		m.partRecs[p] = recs
		m.storageRecs += recs.Cardinality()
		vt, err := m.db.MustTable(m.versionName(p))
		if err != nil {
			return err
		}
		vt.Scan(func(_ engine.RowID, row engine.Row) bool {
			m.rlists[vgraph.VersionID(row[0].I)] = membershipValue(row[1])
			return true
		})
	}
	m.totalRecords = m.countMaxRid()
	return nil
}

// membershipValue views a stored membership cell as a bitmap, widening the
// int-array payloads written by pre-bitmap snapshots so old stores keep
// reading correctly (the same fallback versionManager.load applies).
func membershipValue(v engine.Value) *bitmap.Bitmap {
	if v.B != nil {
		return v.B
	}
	if v.K == engine.KindIntArray || v.A != nil {
		return bitmap.FromSlice(v.A)
	}
	return bitmap.New()
}

// dataColumns prefixes the data attributes with the rid column, the layout
// shared by the data tables of the split models.
func dataColumns(cols []engine.Column) []engine.Column {
	out := make([]engine.Column, 0, len(cols)+1)
	out = append(out, engine.Column{Name: "rid", Type: engine.KindInt})
	out = append(out, cols...)
	return out
}

// ridsOf extracts the record ids of a record list as int64s.
func ridsOf(recs []Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = int64(r.RID)
	}
	return out
}

// rowWithRID builds a storage row (rid, data...).
func rowWithRID(r Record) engine.Row {
	row := make(engine.Row, 0, len(r.Data)+1)
	row = append(row, engine.IntValue(int64(r.RID)))
	row = append(row, r.Data...)
	return row
}

// recordFromRow splits a storage row (rid, data...) back into a Record. The
// data slice aliases the stored row; callers must not mutate it.
func recordFromRow(row engine.Row) Record {
	return Record{RID: vgraph.RecordID(row[0].I), Data: row[1:]}
}

// CheckoutSQL is the SQL a checkout of vid into table dst translates to:
// Table 1's split-by-rlist join, against the partition that holds vid.
func (c *CVD) CheckoutSQL(dst string, vid vgraph.VersionID) (string, error) {
	p, ok := c.model.PartitionOf(vid)
	if !ok {
		return "", fmt.Errorf("core: %s: no version %d", c.name, vid)
	}
	m := c.model
	return fmt.Sprintf(
		"SELECT * INTO %s FROM %s, (SELECT unnest(rlist) AS rid_tmp FROM %s WHERE vid = %d) AS tmp WHERE rid = rid_tmp;",
		dst, m.dataName(p), m.versionName(p), vid), nil
}

// CommitSQL is the SQL committing staged table src as the next version, a
// child of parent, translates to: Table 1's single versioning-table insert
// into parent's partition — where the online placement rule puts a child
// unless it opens a new partition — and the child's partition-map row.
func (c *CVD) CommitSQL(src string, parent vgraph.VersionID) (string, error) {
	p, ok := c.model.PartitionOf(parent)
	if !ok {
		return "", fmt.Errorf("core: %s: no version %d", c.name, parent)
	}
	m, vid := c.model, c.vm.nextV
	return fmt.Sprintf("INSERT INTO %s VALUES (%d, ARRAY[SELECT rid FROM %s]);\nINSERT INTO %s VALUES (%d, %d);",
		m.versionName(p), vid, src, m.mapName(), vid, p), nil
}
