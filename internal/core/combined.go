package core

import (
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// combinedTable stores the CVD as a single table whose vlist array column
// lists every version each record belongs to (Approach 1, Figure 1b).
// Checkout is a full scan with an array-containment filter; commit must
// append the new version id to the vlist of every record in the committed
// version — the expensive operation Figure 3b exposes.
type combinedTable struct {
	db  *engine.DB
	cvd string
}

func (m *combinedTable) Kind() ModelKind { return CombinedTableModel }

func (m *combinedTable) tableName() string { return m.cvd + "_combined" }

func (m *combinedTable) Init(cols []engine.Column) error {
	all := dataColumns(cols)
	all = append(all, engine.Column{Name: "vlist", Type: engine.KindIntArray})
	t, err := m.db.CreateTable(m.tableName(), all)
	if err != nil {
		return err
	}
	return t.CreateIndex("rid")
}

func (m *combinedTable) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, all []Record, fresh []Record, _ *bitmap.Bitmap) error {
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
		row := rowWithRID(r)
		row = append(row, engine.ArrayValue([]int64{int64(vid)}))
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

func (m *combinedTable) Checkout(vid vgraph.VersionID) ([]Record, error) {
	t, err := m.db.MustTable(m.tableName())
	if err != nil {
		return nil, err
	}
	// SELECT * INTO T' FROM T WHERE ARRAY[vid] <@ vlist.
	vlistCol := t.ColIndex("vlist")
	want := []int64{int64(vid)}
	var out []Record
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if engine.ArrayContains(want, row[vlistCol].A) {
			// Full slice expression: without the cap, the record's spare
			// capacity would reach into the live row's vlist cell, and a
			// caller appending to the returned row would overwrite it.
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

func (m *combinedTable) AddColumn(c engine.Column) error {
	t, err := m.db.MustTable(m.tableName())
	if err != nil {
		return err
	}
	// The vlist column stays last so checkout can slice it off; add the new
	// attribute just before it by rebuilding rows.
	if err := t.AddColumn(c); err != nil {
		return err
	}
	return m.moveVlistLast(t)
}

// moveVlistLast rewrites rows so the vlist column is the final one after an
// AddColumn appended a data attribute behind it.
func (m *combinedTable) moveVlistLast(t *engine.Table) error {
	cols := t.Columns()
	vl := t.ColIndex("vlist")
	last := len(cols) - 1
	if vl == last {
		return nil
	}
	// Swap column metadata is not supported by the engine; instead recreate
	// the table with the desired order.
	newCols := make([]engine.Column, 0, len(cols))
	for i, c := range cols {
		if i != vl {
			newCols = append(newCols, c)
		}
	}
	newCols = append(newCols, cols[vl])
	tmp := t.Name() + "__tmp"
	nt, err := m.db.CreateTable(tmp, newCols)
	if err != nil {
		return err
	}
	var insertErr error
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		nr := make(engine.Row, 0, len(row))
		for i, v := range row {
			if i != vl {
				nr = append(nr, v)
			}
		}
		nr = append(nr, row[vl])
		if _, err := nt.Insert(nr); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		return insertErr
	}
	if err := nt.CreateIndex("rid"); err != nil {
		return err
	}
	if err := m.db.DropTable(t.Name()); err != nil {
		return err
	}
	return m.db.RenameTable(tmp, m.tableName())
}

func (m *combinedTable) AlterColumnType(name string, k engine.Kind) error {
	t, err := m.db.MustTable(m.tableName())
	if err != nil {
		return err
	}
	return t.AlterColumnType(name, k)
}

func (m *combinedTable) Drop() error {
	if m.db.HasTable(m.tableName()) {
		return m.db.DropTable(m.tableName())
	}
	return nil
}

var _ DataModel = (*combinedTable)(nil)
