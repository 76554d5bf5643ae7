package experiments

import (
	"fmt"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// tablePerVersion stores every version as its own table (Approach 5). It is
// checkout-optimal and storage-pathological: the paper keeps it as the
// yardstick both extremes are measured against.
type tablePerVersion struct {
	db       *engine.DB
	cvd      string
	cols     []engine.Column
	versions []vgraph.VersionID
}

func (m *tablePerVersion) tableName(vid vgraph.VersionID) string {
	return fmt.Sprintf("%s_tpv_v%d", m.cvd, vid)
}

func (m *tablePerVersion) Init(cols []engine.Column) error {
	m.cols = dataColumns(cols)
	return nil
}

func (m *tablePerVersion) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, all, _ []record, _ *bitmap.Bitmap) error {
	t, err := m.db.CreateTable(m.tableName(vid), m.cols)
	if err != nil {
		return err
	}
	for _, r := range all {
		if _, err := t.Insert(rowWithRID(r)); err != nil {
			return err
		}
	}
	m.versions = append(m.versions, vid)
	return nil
}

func (m *tablePerVersion) Checkout(vid vgraph.VersionID) ([]record, error) {
	t, err := m.db.MustTable(m.tableName(vid))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: no version %d: %w", m.cvd, vid, err)
	}
	out := make([]record, 0, t.NumRows())
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		out = append(out, recordFromRow(row))
		return true
	})
	return out, nil
}

func (m *tablePerVersion) StorageBytes() int64 {
	var n int64
	for _, vid := range m.versions {
		if t := m.db.Table(m.tableName(vid)); t != nil {
			n += t.SizeBytes()
		}
	}
	return n
}
