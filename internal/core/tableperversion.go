package core

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

func (m *tablePerVersion) Kind() ModelKind { return TablePerVersionModel }

func (m *tablePerVersion) tableName(vid vgraph.VersionID) string {
	return fmt.Sprintf("%s_tpv_v%d", m.cvd, vid)
}

func (m *tablePerVersion) Init(cols []engine.Column) error {
	m.cols = dataColumns(cols)
	return nil
}

func (m *tablePerVersion) Commit(vid vgraph.VersionID, _ []vgraph.VersionID, all []Record, _ []Record, _ *bitmap.Bitmap) error {
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

func (m *tablePerVersion) Checkout(vid vgraph.VersionID) ([]Record, error) {
	t, err := m.db.MustTable(m.tableName(vid))
	if err != nil {
		return nil, fmt.Errorf("core: %s: no version %d: %w", m.cvd, vid, err)
	}
	out := make([]Record, 0, t.NumRows())
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

func (m *tablePerVersion) AddColumn(c engine.Column) error {
	m.cols = append(m.cols, c)
	for _, vid := range m.versions {
		if t := m.db.Table(m.tableName(vid)); t != nil {
			if err := t.AddColumn(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *tablePerVersion) AlterColumnType(name string, k engine.Kind) error {
	for i := range m.cols {
		if m.cols[i].Name == name {
			m.cols[i].Type = engine.MoreGeneral(m.cols[i].Type, k)
		}
	}
	for _, vid := range m.versions {
		if t := m.db.Table(m.tableName(vid)); t != nil {
			if err := t.AlterColumnType(name, k); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *tablePerVersion) Drop() error {
	for _, vid := range m.versions {
		name := m.tableName(vid)
		if m.db.HasTable(name) {
			if err := m.db.DropTable(name); err != nil {
				return err
			}
		}
	}
	m.versions = nil
	return nil
}
