package experiments

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// splitByRlist is the model OrpheusDB adopts (Approach 3, Figure 1c.ii): a
// data table (rid, attrs...) and a versioning table (vid, rlist). Commit adds
// a single versioning tuple — no array appends — and checkout unnests the
// version's rlist and joins it with the data table. The rlist is a
// compressed bitmap. internal/core serves this layout partitioned; a dataset
// with one partition stores exactly these two tables.
type splitByRlist struct {
	db  *engine.DB
	cvd string
}

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

func (m *splitByRlist) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, _, fresh []record, members *bitmap.Bitmap) error {
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
	_, err = vt.Insert(engine.Row{engine.IntValue(int64(vid)), engine.BitmapValue(members)})
	return err
}

func (m *splitByRlist) Checkout(vid vgraph.VersionID) ([]record, error) {
	vt, err := m.db.MustTable(m.versionName())
	if err != nil {
		return nil, err
	}
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return nil, err
	}
	ids := vt.Index("vid").Lookup(engine.IntValue(int64(vid)))
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: %s: no version %d", m.cvd, vid)
	}
	// SELECT * INTO T' FROM dataTable, (SELECT unnest(rlist) ...) tmp
	// WHERE rid = rid_tmp — the join probes the rlist bitmap in place.
	rows, err := engine.JoinRidsSet(dt, 0, vt.Get(ids[0])[1].B, m.db.JoinMethodSetting())
	if err != nil {
		return nil, err
	}
	return recordsFromRows(rows), nil
}

func (m *splitByRlist) StorageBytes() int64 {
	var n int64
	for _, name := range []string{m.dataName(), m.versionName()} {
		if t := m.db.Table(name); t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}
