package orpheusdb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"orpheusdb/internal/bitmap"
)

// formulaMembers re-derives the merge formula independently of the merge
// package: (ours ∩ theirs) ∪ (ours − base) ∪ (theirs − base).
func formulaMembers(base, ours, theirs *bitmap.Bitmap) *bitmap.Bitmap {
	return bitmap.Or(bitmap.And(ours, theirs),
		bitmap.Or(bitmap.AndNot(ours, base), bitmap.AndNot(theirs, base)))
}

// Functional coverage of the branch & merge subsystem through the Go API and
// the SQL surface, plus snapshot persistence of the branch registry. The
// randomized DAG properties live in merge_property_test.go; the HTTP surface
// is covered in internal/server; the CLI in cmd/orpheus.

func mergeStore(t *testing.T) (*Store, *Dataset) {
	t.Helper()
	s := NewStore()
	d, err := s.Init("prot", []Column{
		{Name: "id", Type: KindInt},
		{Name: "val", Type: KindString},
	}, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func commitRows(t *testing.T, d *Dataset, parents []VersionID, msg string, pairs ...any) VersionID {
	t.Helper()
	var rows []Row
	for i := 0; i < len(pairs); i += 2 {
		rows = append(rows, Row{Int(int64(pairs[i].(int))), String(pairs[i+1].(string))})
	}
	v, err := d.Commit(rows, parents, msg)
	if err != nil {
		t.Fatalf("commit %q: %v", msg, err)
	}
	return v
}

func rowMap(t *testing.T, d *Dataset, v VersionID) map[int64]string {
	t.Helper()
	rows, err := d.Checkout(v)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]string, len(rows))
	for _, r := range rows {
		out[r[0].I] = r[1].S
	}
	return out
}

func TestBranchLifecycle(t *testing.T) {
	s, d := mergeStore(t)
	v1 := commitRows(t, d, nil, "v1", 1, "a", 2, "b")
	v2 := commitRows(t, d, []VersionID{v1}, "v2", 1, "a", 2, "b", 3, "c")

	b, err := d.CreateBranch("dev", v1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Head != v1 || b.Lineage.Cardinality() != 1 || !b.Lineage.Contains(int64(v1)) {
		t.Fatalf("branch = %+v", b)
	}
	// Default anchor is the latest version.
	if b, err = d.CreateBranch("main", 0); err != nil || b.Head != v2 {
		t.Fatalf("main = %+v, %v", b, err)
	}
	if got := d.Branches(); len(got) != 2 || got[0].Name != "dev" || got[1].Name != "main" {
		t.Fatalf("branches = %+v", got)
	}
	// Lineage covers head + ancestors.
	if got, _ := d.Branch("main"); got.Lineage.Cardinality() != 2 {
		t.Fatalf("main lineage = %v", got.Lineage.ToSlice())
	}
	// Ref resolution: ids and names.
	if v, err := d.ResolveRef("dev"); err != nil || v != v1 {
		t.Fatalf("ResolveRef(dev) = %d, %v", v, err)
	}
	if v, err := d.ResolveRef("2"); err != nil || v != v2 {
		t.Fatalf("ResolveRef(2) = %d, %v", v, err)
	}
	if _, err := d.ResolveRef("ghost"); err == nil {
		t.Fatal("unknown ref resolved")
	}
	// Overflowing numeric refs must error, not wrap into a valid id.
	if _, err := d.ResolveRef("18446744073709551617"); err == nil {
		t.Fatal("overflowing ref resolved")
	}
	// Padded branch refs resolve (and, in Merge, still advance the branch).
	if v, err := d.ResolveRef(" dev "); err != nil || v != v1 {
		t.Fatalf("ResolveRef(' dev ') = %d, %v", v, err)
	}
	// Duplicate, numeric, and malformed names are rejected.
	if _, err := d.CreateBranch("dev", v1); err == nil {
		t.Fatal("duplicate branch allowed")
	}
	if _, err := d.CreateBranch("42", v1); err == nil {
		t.Fatal("numeric branch name allowed")
	}
	if _, err := d.CreateBranch("a,b", v1); err == nil {
		t.Fatal("comma in branch name allowed")
	}
	if _, err := d.CreateBranch("orphan", VersionID(99)); err == nil {
		t.Fatal("branch at missing version allowed")
	}
	if err := d.DeleteBranch("dev"); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteBranch("dev"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if got := s.DB().Stats().Snapshot().BranchCreates; got != 2 {
		t.Fatalf("BranchCreates = %d, want 2", got)
	}
}

func TestMergeDisjointAndFastForward(t *testing.T) {
	_, d := mergeStore(t)
	v1 := commitRows(t, d, nil, "v1", 1, "a")
	v2 := commitRows(t, d, []VersionID{v1}, "v2", 1, "a", 2, "b")

	// theirs ancestor of ours: up to date, no new version.
	res, err := d.Merge("2", "1", MergeFail, "")
	if err != nil || !res.UpToDate || res.Version != v2 {
		t.Fatalf("up-to-date merge = %+v, %v", res, err)
	}
	// ours ancestor of theirs: fast-forward, no new version.
	res, err = d.Merge("1", "2", MergeFail, "")
	if err != nil || !res.FastForward || res.Version != v2 {
		t.Fatalf("fast-forward merge = %+v, %v", res, err)
	}
	if n := len(d.Versions()); n != 2 {
		t.Fatalf("trivial merges created versions: %d", n)
	}

	// A branch fast-forwards its head.
	if _, err := d.CreateBranch("main", v1); err != nil {
		t.Fatal(err)
	}
	res, err = d.Merge("main", "2", MergeFail, "")
	if err != nil || !res.FastForward {
		t.Fatalf("branch ff = %+v, %v", res, err)
	}
	if b, _ := d.Branch("main"); b.Head != v2 || b.Lineage.Cardinality() != 2 {
		t.Fatalf("main after ff = %+v", b)
	}
}

func TestMergeThreeWayAndConflicts(t *testing.T) {
	s, d := mergeStore(t)
	v1 := commitRows(t, d, nil, "base", 1, "a", 2, "b", 3, "c")
	// ours: modify id=1, delete id=3, add id=4.
	v2 := commitRows(t, d, []VersionID{v1}, "ours", 1, "a2", 2, "b", 4, "d")
	// theirs: add id=5, keep the rest.
	v3 := commitRows(t, d, []VersionID{v1}, "theirs", 1, "a", 2, "b", 3, "c", 5, "e")

	res, err := d.Merge("2", "3", MergeFail, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != v1 || res.UpToDate || res.FastForward || len(res.Conflicts) != 0 {
		t.Fatalf("merge = %+v", res)
	}
	want := map[int64]string{1: "a2", 2: "b", 4: "d", 5: "e"} // 3 deleted by ours
	if got := rowMap(t, d, res.Version); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged rows = %v, want %v", got, want)
	}
	info, err := d.Info(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Parents) != 2 || info.Parents[0] != v2 || info.Parents[1] != v3 {
		t.Fatalf("merge parents = %v", info.Parents)
	}

	// Conflicting sides: both modify id=2 differently.
	v5 := commitRows(t, d, []VersionID{v1}, "ours2", 1, "a", 2, "B-ours", 3, "c")
	v6 := commitRows(t, d, []VersionID{v1}, "theirs2", 1, "a", 2, "B-theirs", 3, "c")
	res, err = d.Merge(fmt.Sprint(v5), fmt.Sprint(v6), MergeFail, "")
	if err == nil {
		t.Fatal("conflicting merge under fail policy succeeded")
	}
	var ce *MergeConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *MergeConflictError", err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind() != "modify/modify" || res.Conflicts[0].Key != "2" {
		t.Fatalf("conflicts = %+v", res.Conflicts)
	}
	if res.Version != 0 {
		t.Fatalf("refused merge produced version %d", res.Version)
	}
	before := len(d.Versions())

	// ours / theirs policies resolve deterministically.
	res, err = d.Merge(fmt.Sprint(v5), fmt.Sprint(v6), MergeOurs, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowMap(t, d, res.Version)[2]; got != "B-ours" {
		t.Fatalf("ours policy kept %q", got)
	}
	res, err = d.Merge(fmt.Sprint(v5), fmt.Sprint(v6), MergeTheirs, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowMap(t, d, res.Version)[2]; got != "B-theirs" {
		t.Fatalf("theirs policy kept %q", got)
	}
	if got := len(d.Versions()); got != before+2 {
		t.Fatalf("policy merges added %d versions, want 2", got-before)
	}
	snap := s.DB().Stats().Snapshot()
	if snap.Merges < 3 || snap.MergeConflicts < 3 {
		t.Fatalf("merge stats = %+v", snap)
	}
}

// TestMergeRecordSetEqualsFormula pins the acceptance property directly:
// a conflict-free merge's rlist is exactly the bitmap formula.
func TestMergeRecordSetEqualsFormula(t *testing.T) {
	_, d := mergeStore(t)
	v1 := commitRows(t, d, nil, "base", 1, "a", 2, "b", 3, "c")
	v2 := commitRows(t, d, []VersionID{v1}, "ours", 2, "b", 3, "c", 4, "d")   // -1 +4
	v3 := commitRows(t, d, []VersionID{v1}, "theirs", 1, "a", 2, "b", 5, "e") // -3 +5

	res, err := d.Merge("2", "3", MergeFail, "")
	if err != nil {
		t.Fatal(err)
	}
	cvd := d.CVD()
	base, _ := cvd.RlistSet(v1)
	ours, _ := cvd.RlistSet(v2)
	theirs, _ := cvd.RlistSet(v3)
	merged, _ := cvd.RlistSet(res.Version)
	// merged = (ours ∩ theirs) ∪ (ours − base) ∪ (theirs − base)
	want := formulaMembers(base, ours, theirs)
	if !merged.Equal(want) {
		t.Fatalf("merged rlist %v != formula %v", merged.ToSlice(), want.ToSlice())
	}
}

func TestBranchPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.odb")
	s, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("p", []Column{{Name: "id", Type: KindInt}, {Name: "v", Type: KindString}},
		InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := commitRows(t, d, nil, "v1", 1, "a")
	commitRows(t, d, []VersionID{v1}, "v2", 1, "a", 2, "b")
	commitRows(t, d, []VersionID{v1}, "v3", 1, "a", 3, "c")
	if _, err := d.CreateBranch("main", 2); err != nil {
		t.Fatal(err)
	}
	res, err := d.Merge("main", "3", MergeFail, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.Dataset("p")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rd.Branch("main")
	if err != nil {
		t.Fatal(err)
	}
	if b.Head != res.Version {
		t.Fatalf("reloaded head = %d, want %d", b.Head, res.Version)
	}
	if !b.Lineage.Contains(int64(res.Version)) || !b.Lineage.Contains(int64(v1)) {
		t.Fatalf("reloaded lineage = %v", b.Lineage.ToSlice())
	}
	// The reloaded registry stays writable.
	if _, err := rd.CreateBranch("post", 0); err != nil {
		t.Fatal(err)
	}
}

func TestBranchSQLSurface(t *testing.T) {
	s, d := mergeStore(t)
	v1 := commitRows(t, d, nil, "v1", 1, "a", 2, "b")
	commitRows(t, d, []VersionID{v1}, "v2", 1, "a2", 2, "b")
	commitRows(t, d, []VersionID{v1}, "v3", 1, "a", 2, "b", 3, "c")

	res, err := s.Run("CREATE BRANCH main FROM VERSION 2 OF CVD prot")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "main" || res.Rows[0][1].I != 2 {
		t.Fatalf("CREATE BRANCH result = %v", res.Rows)
	}
	// Default anchor: latest.
	if _, err := s.Run("CREATE BRANCH dev OF CVD prot"); err != nil {
		t.Fatal(err)
	}
	if b, _ := d.Branch("dev"); b.Head != 3 {
		t.Fatalf("dev head = %d", b.Head)
	}
	// Branch names resolve in version slots, including multi-version chains.
	res, err = s.Run("SELECT count(*) FROM VERSION main OF CVD prot")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("VERSION main scan = %v, %v", res, err)
	}
	res, err = s.Run("SELECT count(*) FROM VERSION dev EXCEPT 1 OF CVD prot")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("VERSION dev EXCEPT 1 = %v, %v", res, err)
	}
	// Merge through SQL, advancing the target branch.
	res, err = s.Run("MERGE VERSION dev INTO main OF CVD prot")
	if err != nil {
		t.Fatal(err)
	}
	mergedVid := res.Rows[0][0].I
	if res.Cols[0] != "version" || mergedVid != 4 || res.Rows[0][1].I != 1 {
		t.Fatalf("MERGE result = %v %v", res.Cols, res.Rows)
	}
	if b, _ := d.Branch("main"); int64(b.Head) != mergedVid {
		t.Fatalf("main head = %d, want %d", b.Head, mergedVid)
	}
	// Conflicting merge: fail policy errors, USING theirs resolves.
	commitRows(t, d, []VersionID{v1}, "v5", 1, "x", 2, "b")
	commitRows(t, d, []VersionID{v1}, "v6", 1, "y", 2, "b")
	if _, err := s.Run("MERGE VERSION 6 INTO 5 OF CVD prot"); err == nil {
		t.Fatal("conflicting SQL merge succeeded under fail policy")
	}
	res, err = s.Run("MERGE VERSION 6 INTO 5 OF CVD prot USING theirs")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][2].I != 1 {
		t.Fatalf("conflict count = %v", res.Rows)
	}
	got := rowMap(t, d, VersionID(res.Rows[0][0].I))
	if got[1] != "y" {
		t.Fatalf("USING theirs kept %q", got[1])
	}
	// DROP BRANCH, and scripts mixing SQL with branch statements.
	if _, err := s.Run("DROP BRANCH dev OF CVD prot"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Branch("dev"); err == nil {
		t.Fatal("dev survived DROP BRANCH")
	}
	if _, err := s.RunScript(context.Background(), "CREATE BRANCH scripted OF CVD prot; SELECT count(*) FROM VERSION scripted OF CVD prot"); err != nil {
		t.Fatal(err)
	}
	// Error surfaces: unknown branch, unknown policy, missing CVD, and the
	// nonsense zero anchor (which must not silently mean "latest").
	for _, bad := range []string{
		"MERGE VERSION ghost INTO main OF CVD prot",
		"MERGE VERSION 2 INTO 3 OF CVD prot USING wat",
		"CREATE BRANCH b FROM VERSION 1 OF CVD nope",
		"DROP BRANCH ghost OF CVD prot",
		"CREATE BRANCH zero FROM VERSION 0 OF CVD prot",
	} {
		if _, err := s.Run(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// TestMergeKeylessDataset: without a primary key conflicts cannot exist and
// the merge is pure set algebra.
func TestMergeKeylessDataset(t *testing.T) {
	s := NewStore()
	d, err := s.Init("k", []Column{{Name: "v", Type: KindString}}, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := d.Commit([]Row{{String("a")}, {String("b")}}, nil, "v1")
	d.Commit([]Row{{String("a")}, {String("c")}}, []VersionID{v1}, "v2")
	d.Commit([]Row{{String("b")}, {String("d")}}, []VersionID{v1}, "v3")
	res, err := d.Merge("2", "3", MergeFail, "")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d.Checkout(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	// a deleted by theirs, b deleted by ours → {c, d}.
	if len(rows) != 2 {
		t.Fatalf("keyless merge rows = %v", rows)
	}
}

// TestMergeAcrossModels runs a conflicted merge under every model name
// InitOptions accepts.
func TestMergeAcrossModels(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			s := NewStore()
			d, err := s.Init("m", []Column{
				{Name: "id", Type: KindInt},
				{Name: "val", Type: KindString},
			}, InitOptions{Model: model, PrimaryKey: []string{"id"}})
			if err != nil {
				t.Fatal(err)
			}
			v1 := commitRows(t, d, nil, "base", 1, "a", 2, "b")
			commitRows(t, d, []VersionID{v1}, "ours", 1, "a-ours", 2, "b", 3, "c")
			commitRows(t, d, []VersionID{v1}, "theirs", 1, "a-theirs", 2, "b", 4, "d")
			if _, err := d.Merge("2", "3", MergeFail, ""); err == nil {
				t.Fatal("conflict not detected")
			}
			res, err := d.Merge("2", "3", MergeOurs, "")
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]string{1: "a-ours", 2: "b", 3: "c", 4: "d"}
			if got := rowMap(t, d, res.Version); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("merged rows = %v, want %v", got, want)
			}
		})
	}
}
