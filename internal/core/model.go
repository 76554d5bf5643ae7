package core

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

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

// DataModel is the storage representation of a CVD's versions and records
// inside the backing database. Implementations own their tables; the CVD
// middleware owns record identity, version metadata, and provenance.
type DataModel interface {
	// Kind identifies the model.
	Kind() ModelKind

	// Init creates the model's tables for a CVD whose data attributes are
	// cols (rid excluded; models that store rids add the column
	// themselves).
	Init(cols []engine.Column) error

	// Commit stores version vid. all lists every record in the version;
	// fresh lists the subset newly created by this commit (their Data rows
	// are not yet known to the model). parents are the version's parent
	// ids, needed by the delta model to choose its base. members is the
	// version's canonical rlist bitmap (the rids of all), shared with the
	// version metadata: models store it as is and never mutate it.
	Commit(vid vgraph.VersionID, parents []vgraph.VersionID, all []Record, fresh []Record, members *bitmap.Bitmap) error

	// Checkout returns every record of vid. For the array-based models
	// this is the operation Figure 3c measures.
	Checkout(vid vgraph.VersionID) ([]Record, error)

	// StorageBytes reports the model-owned storage including indexes
	// (Figure 3a).
	StorageBytes() int64

	// AddColumn extends the model's data schema with a new attribute;
	// existing records read as NULL (schema evolution, Section 3.3).
	AddColumn(c engine.Column) error

	// AlterColumnType widens a data attribute's type (Section 3.3).
	AlterColumnType(name string, k engine.Kind) error

	// Drop removes all model-owned tables.
	Drop() error
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

// recordFetcher is an optional DataModel capability: materialize specific
// records by id without checking out any version. Models backed by a shared
// data table implement it with the same rid join checkout uses; the CVD's
// set-algebra operations (diff, multi-version scans) push membership bitmaps
// down to it so only result records touch the data table.
type recordFetcher interface {
	FetchRecords(rids []int64) ([]Record, error)
}

// recordSetFetcher is the bitmap-driven refinement of recordFetcher: the
// membership set is handed to the scan as-is, so implementations can probe it
// in place (no rid materialization, no transient hash table) and parallelize
// the scan. The CVD prefers this capability whenever a model offers it.
type recordSetFetcher interface {
	FetchRecordSet(set *bitmap.Bitmap) ([]Record, error)
}

// membershipSized is an optional DataModel capability: report how many bytes
// of the model's storage hold version membership (rlists/vlists) as opposed
// to record data. Backs the storage-breakdown endpoint.
type membershipSized interface {
	MembershipBytes() int64
}

// NewDataModel constructs the given model kind over db for the named CVD.
func NewDataModel(kind ModelKind, db *engine.DB, cvd string) (DataModel, error) {
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
	case PartitionedRlistModel:
		return &partitionedRlist{db: db, cvd: cvd}, nil
	}
	return nil, fmt.Errorf("core: unknown data model %q", kind)
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
