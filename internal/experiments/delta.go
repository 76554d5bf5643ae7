package experiments

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
	rlists map[vgraph.VersionID]*bitmap.Bitmap
}

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

func (m *deltaModel) Commit(vid vgraph.VersionID, parents []vgraph.VersionID, all, _ []record, members *bitmap.Bitmap) error {
	pt, err := m.db.MustTable(m.precedentName())
	if err != nil {
		return err
	}
	// Base = the parent sharing the most records with the new version
	// (storing deltas against multiple parents would complicate
	// reconstruction; the paper opts for the single-base solution).
	base := vgraph.VersionID(0)
	var bestCommon int64 = -1
	for _, p := range parents {
		if common := m.rlists[p].AndCardinality(members); common > bestCommon {
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
		if _, err := dt.Insert(append(rowWithRID(r), engine.BoolValue(false))); err != nil {
			return err
		}
	}
	// Deletes: records in the base but not in the version, tombstoned with
	// only the rid populated.
	var insertErr error
	bitmap.AndNot(baseSet, members).Iterate(func(r int64) bool {
		row := make(engine.Row, len(m.deltaCols))
		row[0] = engine.IntValue(r)
		for i := 1; i < len(row)-1; i++ {
			row[i] = engine.NullValue()
		}
		row[len(row)-1] = engine.BoolValue(true)
		_, insertErr = dt.Insert(row)
		return insertErr == nil
	})
	if insertErr != nil {
		return insertErr
	}
	if _, err := pt.Insert(engine.Row{engine.IntValue(int64(vid)), engine.IntValue(int64(base))}); err != nil {
		return err
	}
	m.rlists[vid] = members
	return nil
}

func (m *deltaModel) Checkout(vid vgraph.VersionID) ([]record, error) {
	pt, err := m.db.MustTable(m.precedentName())
	if err != nil {
		return nil, err
	}
	baseIx := pt.Index("vid")
	seen := make(map[vgraph.RecordID]bool)
	var out []record
	tombCol := len(m.deltaCols) - 1
	for cur := vid; cur != 0; {
		dt, err := m.db.MustTable(m.deltaName(cur))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: delta chain broken at v%d: %w", m.cvd, cur, err)
		}
		dt.Scan(func(_ engine.RowID, row engine.Row) bool {
			rid := vgraph.RecordID(row[0].I)
			if seen[rid] {
				return true
			}
			seen[rid] = true
			if !row[tombCol].Bool() {
				out = append(out, record{RID: rid, Data: row[1:tombCol]})
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
