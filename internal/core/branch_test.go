package core

import (
	"context"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/merge"
	"orpheusdb/internal/vgraph"
)

func branchCVD(t *testing.T) (*engine.DB, *CVD) {
	t.Helper()
	db := engine.NewDB()
	c, err := Init(db, "b", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "val", Type: engine.KindString},
	}, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

func commitPairs(t *testing.T, c *CVD, parents []vgraph.VersionID, pairs ...any) vgraph.VersionID {
	t.Helper()
	var rows []engine.Row
	for i := 0; i < len(pairs); i += 2 {
		rows = append(rows, engine.Row{
			engine.IntValue(int64(pairs[i].(int))),
			engine.StringValue(pairs[i+1].(string)),
		})
	}
	v, err := c.Commit(context.Background(), rows, parents, "c")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBranchBackfillOnOpen: CVDs snapshotted before the branch registry
// existed gain the branches table when opened.
func TestBranchBackfillOnOpen(t *testing.T) {
	db, c := branchCVD(t)
	v1 := commitPairs(t, c, nil, 1, "a")
	// Simulate a pre-branch snapshot: the table simply is not there.
	if err := db.DropTable("b__branches"); err != nil {
		t.Fatal(err)
	}
	re, err := Open(db, "b")
	if err != nil {
		t.Fatalf("open without branches table: %v", err)
	}
	if got := re.Branches(); len(got) != 0 {
		t.Fatalf("backfilled registry not empty: %v", got)
	}
	if _, err := re.CreateBranch("main", v1); err != nil {
		t.Fatalf("create on backfilled registry: %v", err)
	}
	// And it persists through a regular reopen.
	re2, err := Open(db, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := re2.Branch("main"); err != nil || b.Head != v1 {
		t.Fatalf("reopened branch = %+v, %v", b, err)
	}
}

// TestMergeBaseSelectsDeepestAncestor: the LCA is the deepest common
// version, not just any shared root.
func TestMergeBaseSelectsDeepestAncestor(t *testing.T) {
	_, c := branchCVD(t)
	v1 := commitPairs(t, c, nil, 1, "a")
	v2 := commitPairs(t, c, []vgraph.VersionID{v1}, 1, "a", 2, "b")
	v3 := commitPairs(t, c, []vgraph.VersionID{v2}, 1, "a", 2, "b", 3, "c")
	v4 := commitPairs(t, c, []vgraph.VersionID{v2}, 1, "a", 2, "b", 4, "d")
	base, ok, err := c.MergeBase(v3, v4)
	if err != nil || !ok || base != v2 {
		t.Fatalf("MergeBase(%d,%d) = %d,%v,%v; want %d", v3, v4, base, ok, err, v2)
	}
}

// TestMergeDisjointRoots: versions with no shared ancestry merge against an
// empty base (everything on both sides is an addition).
func TestMergeDisjointRoots(t *testing.T) {
	_, c := branchCVD(t)
	v1 := commitPairs(t, c, nil, 1, "a")
	v2 := commitPairs(t, c, nil, 2, "b") // second root
	res, err := c.Merge(context.Background(), v1, v2, MergeOptions{Policy: merge.PolicyFail})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != 0 || res.Version == 0 {
		t.Fatalf("disjoint merge = %+v", res)
	}
	rows, err := c.Checkout(res.Version)
	if err != nil || len(rows) != 2 {
		t.Fatalf("disjoint merge checkout = %v, %v", rows, err)
	}
}

// TestBranchLineageSharing: lineage bitmaps returned by Branch are the
// persisted objects; advancing recomputes rather than mutating in place.
func TestBranchLineageAdvance(t *testing.T) {
	_, c := branchCVD(t)
	v1 := commitPairs(t, c, nil, 1, "a")
	v2 := commitPairs(t, c, []vgraph.VersionID{v1}, 1, "a", 2, "b")
	b, err := c.CreateBranch("main", v1)
	if err != nil {
		t.Fatal(err)
	}
	old := b.Lineage
	nb, err := c.AdvanceBranch("main", v2)
	if err != nil {
		t.Fatal(err)
	}
	if old.Cardinality() != 1 {
		t.Fatal("advance mutated the previous lineage bitmap")
	}
	if nb.Lineage.Cardinality() != 2 || !nb.Lineage.Contains(int64(v2)) {
		t.Fatalf("advanced lineage = %v", nb.Lineage.ToSlice())
	}
	if _, err := c.AdvanceBranch("ghost", v2); err == nil {
		t.Fatal("advance of unknown branch succeeded")
	}
	if _, err := c.AdvanceBranch("main", vgraph.VersionID(99)); err == nil {
		t.Fatal("advance to unknown version succeeded")
	}
}
