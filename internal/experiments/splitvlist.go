package experiments

import (
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// splitByVlist separates data from versioning information (Approach 2,
// Figure 1c.i): a data table (rid, attrs...) and a versioning table
// (rid, vlist). The vlist is a compressed bitmap of version ids. Commit
// still pays a per-record update in the versioning table (the model's
// structural weakness the paper exposes); checkout selects rids whose vlist
// contains the version and joins them with the data table.
type splitByVlist struct {
	db  *engine.DB
	cvd string
}

func (m *splitByVlist) dataName() string    { return m.cvd + "_vl_data" }
func (m *splitByVlist) versionName() string { return m.cvd + "_vl_version" }

func (m *splitByVlist) Init(cols []engine.Column) error {
	dt, err := m.db.CreateTable(m.dataName(), dataColumns(cols))
	if err != nil {
		return err
	}
	if err := dt.SetPrimaryKey("rid"); err != nil {
		return err
	}
	vt, err := m.db.CreateTable(m.versionName(), []engine.Column{
		{Name: "rid", Type: engine.KindInt},
		{Name: "vlist", Type: engine.KindBitmap},
	})
	if err != nil {
		return err
	}
	return vt.SetPrimaryKey("rid")
}

func (m *splitByVlist) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, all, fresh []record, _ *bitmap.Bitmap) error {
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return err
	}
	vt, err := m.db.MustTable(m.versionName())
	if err != nil {
		return err
	}
	freshSet := make(map[vgraph.RecordID]bool, len(fresh))
	for _, r := range fresh {
		freshSet[r.RID] = true
	}
	// UPDATE versioningTable SET vlist = vlist + vj WHERE rid IN (...):
	// per-record updates via the rid primary-key index. Stored bitmaps are
	// immutable, so each touched vlist is cloned before the version is
	// added.
	ix := vt.Index("rid")
	vlistCol := vt.ColIndex("vlist")
	for _, r := range all {
		if freshSet[r.RID] {
			continue
		}
		for _, id := range ix.Lookup(engine.IntValue(int64(r.RID))) {
			row := vt.Get(id)
			vl := row[vlistCol].B.Clone()
			vl.Add(int64(vid))
			nr := engine.CloneRow(row)
			nr[vlistCol] = engine.BitmapValue(vl)
			if err := vt.Update(id, nr); err != nil {
				return err
			}
		}
	}
	for _, r := range fresh {
		if _, err := dt.Insert(rowWithRID(r)); err != nil {
			return err
		}
		_, err := vt.Insert(engine.Row{
			engine.IntValue(int64(r.RID)),
			engine.BitmapFromSlice([]int64{int64(vid)}),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *splitByVlist) Checkout(vid vgraph.VersionID) ([]record, error) {
	vt, err := m.db.MustTable(m.versionName())
	if err != nil {
		return nil, err
	}
	dt, err := m.db.MustTable(m.dataName())
	if err != nil {
		return nil, err
	}
	// SELECT rid FROM versioningTable WHERE vid ∈ vlist — a full scan of
	// the versioning table with bitmap membership probes...
	vlistCol := vt.ColIndex("vlist")
	var rids []int64
	vt.Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[vlistCol].B.Contains(int64(vid)) {
			rids = append(rids, row[0].I)
		}
		return true
	})
	// ...followed by a join with the data table.
	rows, err := engine.JoinRids(dt, 0, rids, m.db.JoinMethodSetting())
	if err != nil {
		return nil, err
	}
	return recordsFromRows(rows), nil
}

func (m *splitByVlist) StorageBytes() int64 {
	var n int64
	for _, name := range []string{m.dataName(), m.versionName()} {
		if t := m.db.Table(name); t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}
