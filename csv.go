package orpheusdb

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"

	"orpheusdb/internal/core"
	"orpheusdb/internal/engine"
)

// CSV checkout/commit (the -f flag of Section 2.2): versions materialize as
// CSV files whose header carries the schema as name:type pairs, so external
// tools (Python, R, spreadsheets) can edit them before committing back.

// CheckoutToCSV writes versions to a CSV file and registers its provenance.
func (d *Dataset) CheckoutToCSV(path string, vids ...VersionID) error {
	// One lock acquisition for schema and rows, so a concurrent
	// schema-evolving commit cannot desynchronize header and data.
	cols, rows, _, err := d.CheckoutWithTokenCtx(context.TODO(), vids...)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name + ":" + c.Type.String()
	}
	if err := w.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, row := range rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return d.store.recordProvenance(core.Provenance{
		Name:      path,
		CVD:       d.Name(),
		Parents:   vids,
		User:      d.store.WhoAmI(),
		CreatedAt: d.cvd.Clock(),
		IsFile:    true,
	})
}

// recordProvenance registers a checkout artifact in the shared staging
// tables. The save lock is held exclusively because SQL statements may scan
// these tables under the shared lock.
func (s *Store) recordProvenance(p core.Provenance) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.stagingMu.Lock()
	defer s.stagingMu.Unlock()
	if err := core.RecordProvenance(s.db, p); err != nil {
		return err
	}
	s.scheduleSave()
	return nil
}

// lookupProvenance reads a staging registration under the staging lock.
func (s *Store) lookupProvenance(name string) (*core.Provenance, error) {
	s.ioMu.RLock() // the staging table is SQL-nameable; exclude DML writes
	defer s.ioMu.RUnlock()
	s.stagingMu.Lock()
	defer s.stagingMu.Unlock()
	return core.LookupProvenance(s.db, name)
}

// releaseProvenance removes a staging registration.
func (s *Store) releaseProvenance(name string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.stagingMu.Lock()
	defer s.stagingMu.Unlock()
	if err := core.ReleaseProvenance(s.db, name); err != nil {
		return err
	}
	s.scheduleSave()
	return nil
}

// CommitCSV commits a CSV file (typically produced by CheckoutToCSV and then
// edited) back as a new version. If the file is registered in the staging
// area its recorded parents are used; otherwise parents may be passed
// explicitly.
func (d *Dataset) CommitCSV(path, msg string, parents ...VersionID) (VersionID, error) {
	if p, err := d.store.lookupProvenance(path); err == nil {
		if p.CVD != d.Name() {
			return 0, fmt.Errorf("orpheusdb: %s was checked out from CVD %q, not %q", path, p.CVD, d.Name())
		}
		if len(parents) == 0 {
			parents = p.Parents
		}
	}
	cols, rows, err := ReadCSV(path)
	if err != nil {
		return 0, err
	}
	vid, err := d.CommitWithSchema(context.TODO(), cols, rows, parents, msg)
	if err != nil {
		return 0, err
	}
	return vid, d.store.releaseProvenance(path)
}

// ReadCSV loads a CSV file with a name:type header into columns and rows.
// Types default to string when the header omits them.
func ReadCSV(path string) ([]Column, []Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	records, err := r.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("orpheusdb: %s: empty csv", path)
	}
	cols := make([]Column, len(records[0]))
	for i, h := range records[0] {
		name, typeName, found := strings.Cut(h, ":")
		k := engine.KindString
		if found {
			k, err = engine.KindFromName(typeName)
			if err != nil {
				return nil, nil, fmt.Errorf("orpheusdb: %s: column %q: %w", path, h, err)
			}
		}
		cols[i] = Column{Name: strings.TrimSpace(name), Type: k}
	}
	rows := make([]Row, 0, len(records)-1)
	for lineNo, rec := range records[1:] {
		if len(rec) != len(cols) {
			return nil, nil, fmt.Errorf("orpheusdb: %s: line %d has %d fields, want %d", path, lineNo+2, len(rec), len(cols))
		}
		row := make(Row, len(cols))
		for i, field := range rec {
			v, err := parseField(field, cols[i].Type)
			if err != nil {
				return nil, nil, fmt.Errorf("orpheusdb: %s: line %d column %s: %w", path, lineNo+2, cols[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}

// parseField converts one CSV field into a typed value; empty means NULL for
// non-string kinds.
func parseField(field string, k engine.Kind) (Value, error) {
	if field == "" && k != engine.KindString {
		return Null(), nil
	}
	switch k {
	case engine.KindInt:
		n, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return Value{}, err
		}
		return Int(n), nil
	case engine.KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return Value{}, err
		}
		return Float(f), nil
	case engine.KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(field))
		if err != nil {
			return Value{}, err
		}
		return Bool(b), nil
	case engine.KindIntArray:
		body := strings.Trim(strings.TrimSpace(field), "{}")
		if body == "" {
			return Array(nil), nil
		}
		parts := strings.Split(body, ",")
		arr := make([]int64, len(parts))
		for i, p := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return Value{}, err
			}
			arr[i] = n
		}
		return Array(arr), nil
	}
	return String(field), nil
}

// InitFromCSV creates a new CVD from a CSV file and commits its contents as
// version 1 (the init command).
func (s *Store) InitFromCSV(name, path string, opts InitOptions) (*Dataset, VersionID, error) {
	cols, rows, err := ReadCSV(path)
	if err != nil {
		return nil, 0, err
	}
	d, err := s.Init(name, cols, opts)
	if err != nil {
		return nil, 0, err
	}
	v, err := d.Commit(rows, nil, "init from "+path)
	if err != nil {
		return nil, 0, err
	}
	return d, v, nil
}
