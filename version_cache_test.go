package orpheusdb

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Committed versions never change, so the checkout cache keeps their entries
// across commits, merges and branch operations: only the all-versions view
// (`FROM CVD name`) is dropped, and the dataset's generation — the ETag
// validator — stays. A schema change is the exception: it changes how every
// version materializes, so it drops everything and moves the generation.
// These tests pin that rule on every data model, including the ones whose
// commits rewrite existing rows' vlists (combined, split-by-vlist).

// renderRows prints rows as an order-independent string.
func renderRows(rows []Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// commitVals commits one row (id, val) per entry of vals under parents.
func commitVals(t *testing.T, ds *Dataset, parents []VersionID, vals map[int64]string) VersionID {
	t.Helper()
	var rows []Row
	for id, v := range vals {
		rows = append(rows, Row{Int(id), String(v)})
	}
	v, err := ds.Commit(rows, parents, "commit")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCommitsKeepVersionCacheEntries(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) { testCommitsKeepVersionCacheEntries(t, model) })
	}
}

func testCommitsKeepVersionCacheEntries(t *testing.T, model ModelKind) {
	store := NewStore()
	cols := []Column{{Name: "id", Type: KindInt}, {Name: "val", Type: KindString}}
	ds, err := store.Init("vc", cols, InitOptions{Model: model, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := commitVals(t, ds, nil, map[int64]string{0: "a", 1: "a", 2: "a", 3: "a", 4: "a", 5: "a"})
	v2 := commitVals(t, ds, []VersionID{v1}, map[int64]string{0: "a", 1: "a", 2: "a", 3: "b", 4: "b", 5: "b", 6: "b"})

	// The three cached reads: a v1 checkout, a two-version checkout and a
	// multi-version SQL scan.
	reads := func() [3]string {
		t.Helper()
		one, err := ds.Checkout(v1)
		if err != nil {
			t.Fatal(err)
		}
		both, err := ds.Checkout(v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := store.Run(fmt.Sprintf("SELECT * FROM VERSION %d INTERSECT %d OF CVD vc", v1, v2))
		if err != nil {
			t.Fatal(err)
		}
		return [3]string{renderRows(one), renderRows(both), renderRows(res.Rows)}
	}
	want := reads()
	if n := store.DatasetCacheStats("vc").Entries; n != 3 {
		t.Fatalf("entries after the cached reads = %d, want 3", n)
	}

	var v3, v4 VersionID
	steps := []struct {
		name string
		run  func()
	}{
		{"commit", func() {
			v3 = commitVals(t, ds, []VersionID{v2}, map[int64]string{0: "a", 1: "c", 2: "a", 3: "b", 4: "b", 5: "b", 6: "b", 7: "c"})
		}},
		{"true merge", func() {
			v4 = commitVals(t, ds, []VersionID{v1}, map[int64]string{0: "a", 1: "a", 2: "a", 3: "a", 4: "a", 5: "a", 100: "d"})
			res, err := ds.Merge(strconv.Itoa(int(v3)), strconv.Itoa(int(v4)), MergeFail, "merge")
			if err != nil {
				t.Fatal(err)
			}
			if res.FastForward || res.UpToDate || res.Version == 0 {
				t.Fatalf("merge result %+v, want a merge commit", res)
			}
		}},
		{"fast-forward merge", func() {
			if _, err := ds.CreateBranch("ff", v1); err != nil {
				t.Fatal(err)
			}
			res, err := ds.Merge("ff", strconv.Itoa(int(ds.LatestVersion())), MergeFail, "ff")
			if err != nil {
				t.Fatal(err)
			}
			if !res.FastForward {
				t.Fatalf("merge result %+v, want a fast-forward", res)
			}
		}},
		{"branch create and delete", func() {
			if _, err := ds.CreateBranch("side", v2); err != nil {
				t.Fatal(err)
			}
			if err := ds.DeleteBranch("side"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, step := range steps {
		gen := ds.CacheGeneration()
		step.run()
		if n := store.DatasetCacheStats("vc").Entries; n != 3 {
			t.Fatalf("%s: entries = %d, want the 3 version-keyed entries still resident", step.name, n)
		}
		if g := ds.CacheGeneration(); g != gen {
			t.Fatalf("%s: generation %d -> %d, want unchanged", step.name, gen, g)
		}
		hits := store.CacheStats().Hits
		got := reads()
		if h := store.CacheStats().Hits; h != hits+3 {
			t.Fatalf("%s: %d of 3 reads served from cache", step.name, h-hits)
		}
		if got != want {
			t.Fatalf("%s: cached reads changed:\ngot  %q\nwant %q", step.name, got, want)
		}

		// The all-versions view was dropped and sees every version.
		res, err := store.Run("SELECT DISTINCT vid FROM CVD vc ORDER BY vid")
		if err != nil {
			t.Fatal(err)
		}
		var vids []VersionID
		for _, r := range res.Rows {
			vids = append(vids, VersionID(r[0].I))
		}
		if fmt.Sprint(vids) != fmt.Sprint(ds.Versions()) {
			t.Fatalf("%s: all-versions view has versions %v, want %v", step.name, vids, ds.Versions())
		}

		// What the cache kept equals what the models materialize now.
		store.FlushCache()
		if uncached := reads(); uncached != got {
			t.Fatalf("%s: cached reads differ from uncached ones:\ncached   %q\nuncached %q", step.name, got, uncached)
		}
	}

	// A schema change is the one commit that alters old versions: v1 now
	// reads with a NULL in the added column, and the generation moves.
	gen := ds.CacheGeneration()
	wide := append(append([]Column(nil), cols...), Column{Name: "note", Type: KindString})
	if _, err := ds.CommitWithSchema(context.Background(), wide, []Row{{Int(0), String("a"), String("n")}}, []VersionID{ds.LatestVersion()}, "add note"); err != nil {
		t.Fatal(err)
	}
	if g := ds.CacheGeneration(); g == gen {
		t.Fatal("schema commit left the generation unchanged")
	}
	if n := store.DatasetCacheStats("vc").Entries; n != 0 {
		t.Fatalf("entries after a schema commit = %d, want 0", n)
	}
	rows, err := ds.Checkout(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("v1 after schema commit: %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 || !r[2].IsNull() {
			t.Fatalf("v1 row %v, want a NULL in the added column", r)
		}
	}
}
