package core

import (
	"context"
	"fmt"
	"time"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// The staging area (Section 2.3): checked-out versions materialize as regular
// tables (or CSV files) users manipulate directly; the provenance manager
// remembers which versions each staged artifact derives from, and the access
// controller restricts staged tables to the user who checked them out.

// provenanceTable is the global registry of staged tables/files.
const provenanceTable = "__orpheus_staging"

// usersTable is the global user registry.
const usersTable = "__orpheus_users"

// Provenance describes one staged artifact.
type Provenance struct {
	Name      string // table name or file path
	CVD       string
	Parents   []vgraph.VersionID
	User      string
	CreatedAt time.Time
	IsFile    bool
}

// ensureStaging creates the staging registry if missing.
func ensureStaging(db *engine.DB) (*engine.Table, error) {
	if t := db.Table(provenanceTable); t != nil {
		return t, nil
	}
	return db.CreateTable(provenanceTable, []engine.Column{
		{Name: "name", Type: engine.KindString},
		{Name: "cvd", Type: engine.KindString},
		{Name: "parents", Type: engine.KindIntArray},
		{Name: "usr", Type: engine.KindString},
		{Name: "created_at", Type: engine.KindInt},
		{Name: "is_file", Type: engine.KindBool},
	})
}

// RecordProvenance registers a staged artifact.
func RecordProvenance(db *engine.DB, p Provenance) error {
	t, err := ensureStaging(db)
	if err != nil {
		return err
	}
	parents := make([]int64, len(p.Parents))
	for i, v := range p.Parents {
		parents[i] = int64(v)
	}
	_, err = t.Insert(engine.Row{
		engine.StringValue(p.Name),
		engine.StringValue(p.CVD),
		engine.ArrayValue(parents),
		engine.StringValue(p.User),
		engine.IntValue(p.CreatedAt.UnixNano()),
		engine.BoolValue(p.IsFile),
	})
	return err
}

// LookupProvenance finds the staged artifact by name.
func LookupProvenance(db *engine.DB, name string) (*Provenance, error) {
	t := db.Table(provenanceTable)
	if t == nil {
		return nil, fmt.Errorf("core: %q is not a staged table or file", name)
	}
	var out *Provenance
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[0].S != name {
			return true
		}
		p := &Provenance{
			Name:      row[0].S,
			CVD:       row[1].S,
			User:      row[3].S,
			CreatedAt: time.Unix(0, row[4].I),
			IsFile:    row[5].Bool(),
		}
		for _, v := range row[2].A {
			p.Parents = append(p.Parents, vgraph.VersionID(v))
		}
		out = p
		return false
	})
	if out == nil {
		return nil, fmt.Errorf("core: %q is not a staged table or file", name)
	}
	return out, nil
}

// ReleaseProvenance removes the registry entry for a staged artifact.
func ReleaseProvenance(db *engine.DB, name string) error {
	t := db.Table(provenanceTable)
	if t == nil {
		return nil
	}
	var ids []engine.RowID
	t.Scan(func(id engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			ids = append(ids, id)
		}
		return true
	})
	for _, id := range ids {
		t.Delete(id)
	}
	return nil
}

// ListProvenance lists all staged artifacts, optionally filtered by user.
func ListProvenance(db *engine.DB, user string) []Provenance {
	t := db.Table(provenanceTable)
	if t == nil {
		return nil
	}
	var out []Provenance
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if user != "" && row[3].S != user {
			return true
		}
		p := Provenance{
			Name:      row[0].S,
			CVD:       row[1].S,
			User:      row[3].S,
			CreatedAt: time.Unix(0, row[4].I),
			IsFile:    row[5].Bool(),
		}
		for _, v := range row[2].A {
			p.Parents = append(p.Parents, vgraph.VersionID(v))
		}
		out = append(out, p)
		return true
	})
	return out
}

// CreateUser registers a user name.
func CreateUser(db *engine.DB, name string) error {
	if name == "" {
		return fmt.Errorf("core: empty user name")
	}
	t := db.Table(usersTable)
	if t == nil {
		var err error
		t, err = db.CreateTable(usersTable, []engine.Column{
			{Name: "name", Type: engine.KindString},
			{Name: "created_at", Type: engine.KindInt},
		})
		if err != nil {
			return err
		}
	}
	exists := false
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			exists = true
			return false
		}
		return true
	})
	if exists {
		return fmt.Errorf("core: user %q already exists", name)
	}
	_, err := t.Insert(engine.Row{
		engine.StringValue(name),
		engine.IntValue(time.Now().UnixNano()),
	})
	return err
}

// UserExists reports whether the user is registered.
func UserExists(db *engine.DB, name string) bool {
	t := db.Table(usersTable)
	if t == nil {
		return false
	}
	found := false
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// Users lists registered user names.
func Users(db *engine.DB) []string {
	t := db.Table(usersTable)
	if t == nil {
		return nil
	}
	var out []string
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		out = append(out, row[0].S)
		return true
	})
	return out
}

// CheckAccess enforces the access controller's rule: only the user who
// staged a table may read or commit it.
func CheckAccess(db *engine.DB, name, user string) error {
	p, err := LookupProvenance(db, name)
	if err != nil {
		return err
	}
	if p.User != "" && user != p.User {
		return fmt.Errorf("core: %q belongs to user %q, not %q", name, p.User, user)
	}
	return nil
}

// CheckoutToTable materializes versions into a named staging table owned by
// user, recording provenance.
func (c *CVD) CheckoutToTable(table, user string, vids ...vgraph.VersionID) error {
	if c.db.HasTable(table) {
		return fmt.Errorf("core: table %q already exists", table)
	}
	cols, rows, err := c.CheckoutProjected(vids...)
	if err != nil {
		return err
	}
	t, err := c.db.CreateTable(table, cols)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	if len(c.pk) > 0 {
		if err := t.SetPrimaryKey(c.pk...); err != nil {
			return err
		}
	}
	return RecordProvenance(c.db, Provenance{
		Name:      table,
		CVD:       c.name,
		Parents:   vids,
		User:      user,
		CreatedAt: c.Clock(),
	})
}

// CommitTable commits a staged table back into the CVD as a new version
// derived from the versions it was checked out from, then removes the table
// from the staging area (Section 2.3's commit flow).
func (c *CVD) CommitTable(table, user, msg string) (vgraph.VersionID, error) {
	if err := CheckAccess(c.db, table, user); err != nil {
		return 0, err
	}
	p, err := LookupProvenance(c.db, table)
	if err != nil {
		return 0, err
	}
	if p.CVD != c.name {
		return 0, fmt.Errorf("core: table %q belongs to CVD %q, not %q", table, p.CVD, c.name)
	}
	t, err := c.db.MustTable(table)
	if err != nil {
		return 0, err
	}
	var rows []engine.Row
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		rows = append(rows, row)
		return true
	})
	cp, err := c.CommitWithSchema(context.TODO(), t.Columns(), rows, p.Parents, msg)
	if err != nil {
		return 0, err
	}
	if err := c.db.DropTable(table); err != nil {
		return 0, err
	}
	return cp.Vid, ReleaseProvenance(c.db, table)
}
