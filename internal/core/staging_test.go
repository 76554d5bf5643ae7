package core

import (
	"context"
	"testing"
	"time"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

func stagingCVD(t *testing.T) (*engine.DB, *CVD, vgraph.VersionID) {
	t.Helper()
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{PrimaryKey: []string{"protein1", "protein2"}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Commit(context.Background(), []engine.Row{
		protRow("A", "B", 1, 2, 3),
		protRow("C", "D", 4, 5, 6),
	}, nil, "root")
	if err != nil {
		t.Fatal(err)
	}
	return db, c, v1
}

func TestCheckoutCommitTableFlow(t *testing.T) {
	db, c, v1 := stagingCVD(t)
	if err := c.CheckoutToTable("work", "alice", v1); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("work")
	if tab == nil || tab.NumRows() != 2 {
		t.Fatal("staged table missing")
	}
	// Staged tables carry the relation's primary key.
	if len(tab.PrimaryKey()) != 2 {
		t.Fatal("staged table lost the primary key")
	}
	// Provenance recorded.
	p, err := LookupProvenance(db, "work")
	if err != nil {
		t.Fatal(err)
	}
	if p.CVD != "d" || p.User != "alice" || len(p.Parents) != 1 || p.Parents[0] != v1 {
		t.Fatalf("provenance: %+v", p)
	}
	// Edit and commit back.
	ids := tab.Index("rid")
	_ = ids
	var target engine.RowID
	tab.Scan(func(id engine.RowID, r engine.Row) bool {
		if r[0].S == "A" {
			target = id
			return false
		}
		return true
	})
	row := engine.CloneRow(tab.Get(target))
	row[4] = engine.IntValue(99)
	if err := tab.Update(target, row); err != nil {
		t.Fatal(err)
	}
	v2, err := c.CommitTable("work", "alice", "edited")
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Parents) != 1 || info.Parents[0] != v1 {
		t.Fatalf("commit parents: %v", info.Parents)
	}
	// Table gone from the staging area.
	if db.HasTable("work") {
		t.Fatal("staged table not cleaned up")
	}
	if _, err := LookupProvenance(db, "work"); err == nil {
		t.Fatal("provenance not released")
	}
	// The edit created exactly one new record.
	rl1, _ := c.Rlist(v1)
	rl2, _ := c.Rlist(v2)
	if common := vgraph.IntersectSize(sortedRids(rl1), sortedRids(rl2)); common != 1 {
		t.Fatalf("common rids = %d, want 1", common)
	}
}

func TestAccessControl(t *testing.T) {
	db, c, v1 := stagingCVD(t)
	if err := c.CheckoutToTable("private", "bob", v1); err != nil {
		t.Fatal(err)
	}
	if err := CheckAccess(db, "private", "mallory"); err == nil {
		t.Fatal("foreign user allowed")
	}
	if err := CheckAccess(db, "private", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTable("private", "mallory", "steal"); err == nil {
		t.Fatal("foreign commit allowed")
	}
	if _, err := c.CommitTable("private", "bob", "mine"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckoutToExistingTableFails(t *testing.T) {
	db, c, v1 := stagingCVD(t)
	if _, err := db.CreateTable("taken", []engine.Column{{Name: "x", Type: engine.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckoutToTable("taken", "alice", v1); err == nil {
		t.Fatal("overwrote existing table")
	}
}

func TestCommitTableWrongCVD(t *testing.T) {
	db, c, v1 := stagingCVD(t)
	c2, err := Init(db, "other", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckoutToTable("w", "alice", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.CommitTable("w", "alice", "cross"); err == nil {
		t.Fatal("cross-CVD commit allowed")
	}
}

func TestUsers(t *testing.T) {
	db := engine.NewDB()
	if err := CreateUser(db, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := CreateUser(db, "alice"); err == nil {
		t.Fatal("duplicate user accepted")
	}
	if err := CreateUser(db, ""); err == nil {
		t.Fatal("empty user accepted")
	}
	if !UserExists(db, "alice") || UserExists(db, "bob") {
		t.Fatal("UserExists wrong")
	}
	if got := Users(db); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("Users: %v", got)
	}
}

func TestListProvenance(t *testing.T) {
	db, c, v1 := stagingCVD(t)
	if err := c.CheckoutToTable("t1", "alice", v1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckoutToTable("t2", "bob", v1); err != nil {
		t.Fatal(err)
	}
	if err := RecordProvenance(db, Provenance{
		Name: "f.csv", CVD: "d", Parents: []vgraph.VersionID{v1},
		User: "alice", CreatedAt: time.Now(), IsFile: true,
	}); err != nil {
		t.Fatal(err)
	}
	all := ListProvenance(db, "")
	if len(all) != 3 {
		t.Fatalf("all staged: %d", len(all))
	}
	alice := ListProvenance(db, "alice")
	if len(alice) != 2 {
		t.Fatalf("alice staged: %d", len(alice))
	}
}
