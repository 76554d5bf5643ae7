package core

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// splitByRlist is the model OrpheusDB adopts (Approach 3, Figure 1c.ii): a
// data table (rid, attrs...) and a versioning table (vid, rlist). Commit adds
// a single versioning tuple — no array appends — and checkout unnests the
// version's rlist and joins it with the data table. The rlist is stored as a
// compressed bitmap, so one versioning tuple costs O(runs) bytes for the
// dense record ranges commits typically produce.
type splitByRlist struct {
	db  *engine.DB
	cvd string
}

func (m *splitByRlist) Kind() ModelKind { return SplitByRlistModel }

func (m *splitByRlist) dataName() string    { return m.cvd + "_rl_data" }
func (m *splitByRlist) versionName() string { return m.cvd + "_rl_version" }

func (m *splitByRlist) Init(cols []engine.Column) error {
	dt, err := m.db.CreateTable(m.dataName(), dataColumns(cols))
	if err != nil {
		return err
	}
	if err := dt.SetPrimaryKey("rid"); err != nil {
		return err
	}
	vt, err := m.db.CreateTable(m.versionName(), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "rlist", Type: engine.KindBitmap},
	})
	if err != nil {
		return err
	}
	return vt.SetPrimaryKey("vid")
}

func (m *splitByRlist) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, _ []Record, fresh []Record, members *bitmap.Bitmap) error {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return err
	}
	vt, err := m.db.MustTable(m.versionName())
	if err != nil {
		return err
	}
	for _, r := range fresh {
		if _, err := dt.Insert(rowWithRID(r)); err != nil {
			return err
		}
	}
	// INSERT INTO versioningTable VALUES (vid, <bitmap>) — one tuple.
	_, err = vt.Insert(engine.Row{
		engine.IntValue(int64(vid)),
		engine.BitmapValue(members),
	})
	return err
}

// RlistSet fetches the membership bitmap of a version via the vid
// primary-key index. The bitmap is shared and must not be mutated.
func (m *splitByRlist) RlistSet(vid vgraph.VersionID) (*bitmap.Bitmap, error) {
	vt, err := m.db.MustTable(m.versionName())
	if err != nil {
		return nil, err
	}
	ids := vt.Index("vid").Lookup(engine.IntValue(int64(vid)))
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: %s: no version %d", m.cvd, vid)
	}
	return membershipValue(vt.Get(ids[0])[1]), nil
}

// Rlist fetches the record-id list of a version. The returned slice is a
// fresh copy: mutating it cannot corrupt the stored versioning tuple (the
// pre-bitmap implementation aliased the stored array).
func (m *splitByRlist) Rlist(vid vgraph.VersionID) ([]int64, error) {
	set, err := m.RlistSet(vid)
	if err != nil {
		return nil, err
	}
	return set.ToSlice(), nil
}

func (m *splitByRlist) Checkout(vid vgraph.VersionID) ([]Record, error) {
	set, err := m.RlistSet(vid)
	if err != nil {
		return nil, err
	}
	return m.FetchRecordSet(set)
}

// FetchRecords joins the given record ids against the data table — the same
// physical plan as checkout, but driven by any membership set (diffs,
// multi-version scans).
func (m *splitByRlist) FetchRecords(rids []int64) ([]Record, error) {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return nil, err
	}
	// SELECT * INTO T' FROM dataTable, (SELECT unnest(rlist) ...) tmp
	// WHERE rid = rid_tmp — by default a hash join (Appendix D.1).
	rows, err := engine.JoinRids(dt, 0, rids, m.db.JoinMethodSetting())
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(rows))
	for i, row := range rows {
		out[i] = recordFromRow(row)
	}
	return out, nil
}

// FetchRecordSet is FetchRecords driven by the membership bitmap itself: the
// scan probes the set in place, skipping both the rid materialization and
// the transient hash build, and splits into parallel page chunks on
// multi-core hosts.
func (m *splitByRlist) FetchRecordSet(set *bitmap.Bitmap) ([]Record, error) {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return nil, err
	}
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

func (m *splitByRlist) StorageBytes() int64 {
	var n int64
	if t := m.db.Table(m.dataName()); t != nil {
		n += t.SizeBytes()
	}
	return n + m.MembershipBytes()
}

// MembershipBytes reports the versioning-table footprint: the compressed
// bitmap membership, as opposed to record data.
func (m *splitByRlist) MembershipBytes() int64 {
	if t := m.db.Table(m.versionName()); t != nil {
		return t.SizeBytes()
	}
	return 0
}

func (m *splitByRlist) AddColumn(c engine.Column) error {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return err
	}
	return dt.AddColumn(c)
}

func (m *splitByRlist) AlterColumnType(name string, k engine.Kind) error {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return err
	}
	return dt.AlterColumnType(name, k)
}

func (m *splitByRlist) Drop() error {
	for _, n := range []string{m.dataName(), m.versionName()} {
		if m.db.HasTable(n) {
			if err := m.db.DropTable(n); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	_ DataModel        = (*splitByRlist)(nil)
	_ recordFetcher    = (*splitByRlist)(nil)
	_ recordSetFetcher = (*splitByRlist)(nil)
	_ membershipSized  = (*splitByRlist)(nil)
)
