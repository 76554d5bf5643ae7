package experiments

import (
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// combinedTable stores the dataset as a single table whose vlist array
// column lists every version each record belongs to (Approach 1, Figure 1b).
// Checkout is a full scan with an array-containment filter; commit must
// append the new version id to the vlist of every record in the committed
// version — the expensive operation Figure 3b exposes.
type combinedTable struct {
	db  *engine.DB
	cvd string
}

func (m *combinedTable) tableName() string { return m.cvd + "_combined" }

func (m *combinedTable) Init(cols []engine.Column) error {
	all := append(dataColumns(cols), engine.Column{Name: "vlist", Type: engine.KindIntArray})
	t, err := m.db.CreateTable(m.tableName(), all)
	if err != nil {
		return err
	}
	return t.CreateIndex("rid")
}

func (m *combinedTable) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, all, fresh []record, _ *bitmap.Bitmap) error {
	t, err := m.db.MustTable(m.tableName())
	if err != nil {
		return err
	}
	freshSet := make(map[vgraph.RecordID]bool, len(fresh))
	for _, r := range fresh {
		freshSet[r.RID] = true
	}
	// UPDATE T SET vlist = vlist + vj WHERE rid IN (SELECT rid FROM T'):
	// append vid to every existing record present in the committed version.
	inVersion := make(map[int64]bool, len(all))
	for _, r := range all {
		if !freshSet[r.RID] {
			inVersion[int64(r.RID)] = true
		}
	}
	vlistCol := t.ColIndex("vlist")
	type upd struct {
		id  engine.RowID
		row engine.Row
	}
	var updates []upd
	t.Scan(func(id engine.RowID, row engine.Row) bool {
		if inVersion[row[0].I] {
			nr := engine.CloneRow(row)
			nr[vlistCol] = engine.ArrayValue(engine.ArrayAppend(row[vlistCol].A, int64(vid)))
			updates = append(updates, upd{id: id, row: nr})
		}
		return true
	})
	for _, u := range updates {
		if err := t.Update(u.id, u.row); err != nil {
			return err
		}
	}
	// New records are inserted with vlist = {vid}.
	for _, r := range fresh {
		row := append(rowWithRID(r), engine.ArrayValue([]int64{int64(vid)}))
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

func (m *combinedTable) Checkout(vid vgraph.VersionID) ([]record, error) {
	t, err := m.db.MustTable(m.tableName())
	if err != nil {
		return nil, err
	}
	// SELECT * INTO T' FROM T WHERE ARRAY[vid] <@ vlist.
	vlistCol := t.ColIndex("vlist")
	want := []int64{int64(vid)}
	var out []record
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if engine.ArrayContains(want, row[vlistCol].A) {
			// Full slice expression: without the cap, the record's spare
			// capacity would reach into the live row's vlist cell.
			out = append(out, recordFromRow(row[:vlistCol:vlistCol]))
		}
		return true
	})
	return out, nil
}

func (m *combinedTable) StorageBytes() int64 {
	if t := m.db.Table(m.tableName()); t != nil {
		return t.SizeBytes()
	}
	return 0
}
