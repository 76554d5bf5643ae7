package experiments

import (
	"fmt"

	"orpheusdb/internal/benchgen"
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// The five data models of Section 3 (Figure 1), the baselines Figure 3 and
// Table 1 compare. Datasets are served by internal/core under one model,
// partitioned split-by-rlist; these layouts exist only to reproduce the
// paper, so each keeps just what Figure 3 measures: create its tables,
// commit a version, check one out, report its storage.

// ModelKind names one of the five data models of Section 3.
type ModelKind string

// The data models compared in Figure 3.
const (
	TablePerVersionModel ModelKind = "a-table-per-version"
	CombinedTableModel   ModelKind = "combined-table"
	SplitByVlistModel    ModelKind = "split-by-vlist"
	SplitByRlistModel    ModelKind = "split-by-rlist"
	DeltaModel           ModelKind = "delta-based"
)

// AllModelKinds lists the models in the paper's presentation order.
func AllModelKinds() []ModelKind {
	return []ModelKind{
		TablePerVersionModel,
		CombinedTableModel,
		SplitByVlistModel,
		SplitByRlistModel,
		DeltaModel,
	}
}

// record pairs a record id with its data attributes.
type record struct {
	RID  vgraph.RecordID
	Data engine.Row
}

// layout is one data model's tables inside a database. The caller owns
// record identity and version ids, as the middleware does.
type layout interface {
	// Init creates the tables for data attributes cols (rid excluded).
	Init(cols []engine.Column) error
	// Commit stores version vid with the given parents. all lists every
	// record of the version; fresh is the subset no earlier version holds;
	// members is the rid set of all, shared and never mutated.
	Commit(vid vgraph.VersionID, parents []vgraph.VersionID, all, fresh []record, members *bitmap.Bitmap) error
	// Checkout returns every record of vid (Figure 3c).
	Checkout(vid vgraph.VersionID) ([]record, error)
	// StorageBytes reports the layout's storage, indexes included (Figure
	// 3a).
	StorageBytes() int64
}

// newLayout returns the given model's layout over db for the named dataset.
func newLayout(kind ModelKind, db *engine.DB, cvd string) (layout, error) {
	switch kind {
	case TablePerVersionModel:
		return &tablePerVersion{db: db, cvd: cvd}, nil
	case CombinedTableModel:
		return &combinedTable{db: db, cvd: cvd}, nil
	case SplitByVlistModel:
		return &splitByVlist{db: db, cvd: cvd}, nil
	case SplitByRlistModel:
		return &splitByRlist{db: db, cvd: cvd}, nil
	case DeltaModel:
		return &deltaModel{db: db, cvd: cvd}, nil
	}
	return nil, fmt.Errorf("experiments: unknown data model %q", kind)
}

// loadLayout streams every commit of a benchmark dataset into a fresh layout
// of the given model, using the generator's record ids and version ids as
// they are.
func loadLayout(db *engine.DB, d *benchgen.Dataset, kind ModelKind) (layout, error) {
	l, err := newLayout(kind, db, "bench")
	if err != nil {
		return nil, err
	}
	cols := make([]engine.Column, d.Config.NumAttrs)
	for i := range cols {
		cols[i] = engine.Column{Name: fmt.Sprintf("a%d", i), Type: engine.KindInt}
	}
	if err := l.Init(cols); err != nil {
		return nil, err
	}
	rec := func(rid vgraph.RecordID) record {
		attrs := d.RecordRow(rid)
		row := make(engine.Row, len(attrs))
		for j, a := range attrs {
			row[j] = engine.IntValue(a)
		}
		return record{RID: rid, Data: row}
	}
	for _, c := range d.Commits {
		all := make([]record, len(c.Records))
		rids := make([]int64, len(c.Records))
		for i, rid := range c.Records {
			all[i], rids[i] = rec(rid), int64(rid)
		}
		fresh := make([]record, len(c.NewRecords))
		for i, rid := range c.NewRecords {
			fresh[i] = rec(rid)
		}
		if err := l.Commit(c.ID, c.Parents, all, fresh, bitmap.FromSlice(rids)); err != nil {
			return nil, fmt.Errorf("commit %d: %w", c.ID, err)
		}
	}
	return l, nil
}

// dataColumns prefixes the data attributes with the rid column, the layout
// shared by every model's data tables.
func dataColumns(cols []engine.Column) []engine.Column {
	out := make([]engine.Column, 0, len(cols)+1)
	out = append(out, engine.Column{Name: "rid", Type: engine.KindInt})
	return append(out, cols...)
}

// rowWithRID builds a storage row (rid, data...).
func rowWithRID(r record) engine.Row {
	row := make(engine.Row, 0, len(r.Data)+1)
	row = append(row, engine.IntValue(int64(r.RID)))
	return append(row, r.Data...)
}

// recordFromRow splits a storage row (rid, data...) back into a record. The
// data slice aliases the stored row.
func recordFromRow(row engine.Row) record {
	return record{RID: vgraph.RecordID(row[0].I), Data: row[1:]}
}

// recordsFromRows converts joined storage rows into records.
func recordsFromRows(rows []engine.Row) []record {
	out := make([]record, len(rows))
	for i, row := range rows {
		out[i] = recordFromRow(row)
	}
	return out
}
