package core

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// deltaModel stores each version as a table of modifications from a single
// base version (Approach 4): inserted records plus tombstoned deletions,
// with a precedent metadata table (vid, base) linking versions to their
// bases. Checkout traces the base chain to the root, discarding records seen
// in nearer deltas. As Section 3.1 notes, this model cannot support advanced
// versioning queries without reconstructing versions wholesale.
type deltaModel struct {
	db  *engine.DB
	cvd string
	// deltaCols is the per-delta-table schema: rid, attrs..., tombstone.
	deltaCols []engine.Column
	// rlists lets commit pick the parent sharing the most records as the
	// base (the paper's multi-parent rule) without reconstructing parents.
	// Membership is compared with bitmap intersections.
	rlists map[vgraph.VersionID]*bitmap.Bitmap
}

func (m *deltaModel) Kind() ModelKind { return DeltaModel }

func (m *deltaModel) deltaName(vid vgraph.VersionID) string {
	return fmt.Sprintf("%s_delta_v%d", m.cvd, vid)
}
func (m *deltaModel) precedentName() string { return m.cvd + "_delta_precedent" }

func (m *deltaModel) Init(cols []engine.Column) error {
	m.rlists = make(map[vgraph.VersionID]*bitmap.Bitmap)
	pt, err := m.db.CreateTable(m.precedentName(), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "base", Type: engine.KindInt},
	})
	if err != nil {
		return err
	}
	// The tombstone column marks deletions.
	m.deltaCols = append(dataColumns(cols), engine.Column{Name: "tombstone", Type: engine.KindBool})
	return pt.SetPrimaryKey("vid")
}

func (m *deltaModel) Commit(vid vgraph.VersionID, parents []vgraph.VersionID, all []Record, fresh []Record, ridSet *bitmap.Bitmap) error {
	pt, err := m.db.MustTable(m.precedentName())
	if err != nil {
		return err
	}
	// Base = the parent sharing the most records with the new version
	// (storing deltas against multiple parents would complicate
	// reconstruction; the paper opts for the single-base solution). The
	// overlap is a bitmap intersection cardinality per parent.
	base := vgraph.VersionID(0)
	var bestCommon int64 = -1
	for _, p := range parents {
		if common := m.rlists[p].AndCardinality(ridSet); common > bestCommon {
			base, bestCommon = p, common
		}
	}

	dt, err := m.db.CreateTable(m.deltaName(vid), m.deltaCols)
	if err != nil {
		return err
	}
	baseSet := m.rlists[base]
	// Inserts: records in the version but not in the base.
	for _, r := range all {
		if baseSet.Contains(int64(r.RID)) {
			continue
		}
		row := rowWithRID(r)
		row = append(row, engine.BoolValue(false))
		if _, err := dt.Insert(row); err != nil {
			return err
		}
	}
	// Deletes: records in the base but not in the version (base \ version,
	// a bitmap difference), tombstoned with only the rid populated.
	var insertErr error
	bitmap.AndNot(baseSet, ridSet).Iterate(func(r int64) bool {
		row := make(engine.Row, len(m.deltaCols))
		row[0] = engine.IntValue(r)
		for i := 1; i < len(row)-1; i++ {
			row[i] = engine.NullValue()
		}
		row[len(row)-1] = engine.BoolValue(true)
		if _, err := dt.Insert(row); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		return insertErr
	}
	_, err = pt.Insert(engine.Row{engine.IntValue(int64(vid)), engine.IntValue(int64(base))})
	if err != nil {
		return err
	}
	m.rlists[vid] = ridSet
	return nil
}

func (m *deltaModel) Checkout(vid vgraph.VersionID) ([]Record, error) {
	pt, err := m.db.MustTable(m.precedentName())
	if err != nil {
		return nil, err
	}
	baseIx := pt.Index("vid")
	seen := make(map[vgraph.RecordID]bool)
	var out []Record
	tombCol := len(m.deltaCols) - 1
	cur := vid
	for cur != 0 {
		dt, err := m.db.MustTable(m.deltaName(cur))
		if err != nil {
			return nil, fmt.Errorf("core: %s: delta chain broken at v%d: %w", m.cvd, cur, err)
		}
		dt.Scan(func(_ engine.RowID, row engine.Row) bool {
			rid := vgraph.RecordID(row[0].I)
			if seen[rid] {
				return true
			}
			seen[rid] = true
			if !row[tombCol].Bool() {
				out = append(out, Record{RID: rid, Data: row[1:tombCol]})
			}
			return true
		})
		ids := baseIx.Lookup(engine.IntValue(int64(cur)))
		if len(ids) == 0 {
			break
		}
		cur = vgraph.VersionID(pt.Get(ids[0])[1].I)
	}
	return out, nil
}

func (m *deltaModel) StorageBytes() int64 {
	var n int64
	if t := m.db.Table(m.precedentName()); t != nil {
		n += t.SizeBytes()
	}
	for vid := range m.rlists {
		if t := m.db.Table(m.deltaName(vid)); t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}

func (m *deltaModel) AddColumn(c engine.Column) error {
	// Insert the new attribute before the tombstone column for all future
	// delta tables; existing delta tables are rebuilt.
	tomb := m.deltaCols[len(m.deltaCols)-1]
	m.deltaCols = append(m.deltaCols[:len(m.deltaCols)-1], c, tomb)
	for vid := range m.rlists {
		t := m.db.Table(m.deltaName(vid))
		if t == nil {
			continue
		}
		if err := t.AddColumn(c); err != nil {
			return err
		}
		// Move tombstone back to the last position.
		if err := m.moveTombstoneLast(t, vid); err != nil {
			return err
		}
	}
	return nil
}

func (m *deltaModel) moveTombstoneLast(t *engine.Table, vid vgraph.VersionID) error {
	cols := t.Columns()
	ti := t.ColIndex("tombstone")
	if ti == len(cols)-1 {
		return nil
	}
	newCols := make([]engine.Column, 0, len(cols))
	for i, c := range cols {
		if i != ti {
			newCols = append(newCols, c)
		}
	}
	newCols = append(newCols, cols[ti])
	tmp := t.Name() + "__tmp"
	nt, err := m.db.CreateTable(tmp, newCols)
	if err != nil {
		return err
	}
	var insertErr error
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		nr := make(engine.Row, 0, len(row))
		for i, v := range row {
			if i != ti {
				nr = append(nr, v)
			}
		}
		nr = append(nr, row[ti])
		if _, err := nt.Insert(nr); err != nil {
			insertErr = err
			return false
		}
		return true
	})
	if insertErr != nil {
		return insertErr
	}
	name := t.Name()
	if err := m.db.DropTable(name); err != nil {
		return err
	}
	return m.db.RenameTable(tmp, name)
}

func (m *deltaModel) AlterColumnType(name string, k engine.Kind) error {
	for i := range m.deltaCols {
		if m.deltaCols[i].Name == name {
			m.deltaCols[i].Type = engine.MoreGeneral(m.deltaCols[i].Type, k)
		}
	}
	for vid := range m.rlists {
		if t := m.db.Table(m.deltaName(vid)); t != nil {
			if err := t.AlterColumnType(name, k); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *deltaModel) Drop() error {
	for vid := range m.rlists {
		name := m.deltaName(vid)
		if m.db.HasTable(name) {
			if err := m.db.DropTable(name); err != nil {
				return err
			}
		}
	}
	if m.db.HasTable(m.precedentName()) {
		if err := m.db.DropTable(m.precedentName()); err != nil {
			return err
		}
	}
	m.rlists = nil
	return nil
}

var _ DataModel = (*deltaModel)(nil)
