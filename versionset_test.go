package orpheusdb

import (
	"context"
	"sort"
	"testing"
)

// threeVersionStore builds a dataset with three versions sharing records:
//
//	v1: brca1=10, tp53=20
//	v2: brca1=15, tp53=20, egfr=5    (tp53 shared with v1)
//	v3: tp53=20, myc=7               (tp53 shared with v1/v2)
func threeVersionStore(t *testing.T) (*Store, *Dataset, [3]VersionID) {
	t.Helper()
	store, ds, v1, v2 := geneStore(t)
	v3, err := ds.Commit([]Row{
		{String("tp53"), Int(20)},
		{String("myc"), Int(7)},
	}, []VersionID{v1}, "branch")
	if err != nil {
		t.Fatal(err)
	}
	return store, ds, [3]VersionID{v1, v2, v3}
}

func rowGenes(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].S
	}
	sort.Strings(out)
	return out
}

func sameGenes(t *testing.T, name string, rows []Row, want ...string) {
	t.Helper()
	got := rowGenes(rows)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: genes %v, want %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: genes %v, want %v", name, got, want)
		}
	}
}

func TestMultiVersionCheckoutAPI(t *testing.T) {
	_, ds, v := threeVersionStore(t)

	rows, err := ds.MultiVersionCheckout(context.Background(), []VersionID{v[1], v[2]}, []SetOp{SetIntersect})
	if err != nil {
		t.Fatal(err)
	}
	sameGenes(t, "v2∩v3", rows, "tp53")

	rows, err = ds.MultiVersionCheckout(context.Background(), []VersionID{v[1], v[2]}, []SetOp{SetUnion})
	if err != nil {
		t.Fatal(err)
	}
	sameGenes(t, "v2∪v3", rows, "brca1", "tp53", "egfr", "myc")

	rows, err = ds.MultiVersionCheckout(context.Background(), []VersionID{v[1], v[2]}, []SetOp{SetExcept})
	if err != nil {
		t.Fatal(err)
	}
	sameGenes(t, "v2∖v3", rows, "brca1", "egfr")

	// Left-associative chain: (v2 ∪ v3) ∖ v1 = records not in v1.
	rows, err = ds.MultiVersionCheckout(context.Background(),
		[]VersionID{v[1], v[2], v[0]}, []SetOp{SetUnion, SetExcept})
	if err != nil {
		t.Fatal(err)
	}
	sameGenes(t, "(v2∪v3)∖v1", rows, "brca1", "egfr", "myc")

	// Single version degenerates to a membership checkout.
	rows, err = ds.MultiVersionCheckout(context.Background(), []VersionID{v[2]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameGenes(t, "v3", rows, "tp53", "myc")

	// Arity and existence errors.
	if _, err := ds.MultiVersionCheckout(context.Background(), []VersionID{v[0], v[1]}, nil); err == nil {
		t.Fatal("missing operator accepted")
	}
	if _, err := ds.MultiVersionCheckout(context.Background(), []VersionID{v[0], 99}, []SetOp{SetIntersect}); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := ds.MultiVersionCheckout(context.Background(), nil, nil); err == nil {
		t.Fatal("empty version list accepted")
	}
}

func TestMultiVersionCheckoutAllModels(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			store := NewStore()
			cols := []Column{{Name: "gene", Type: KindString}, {Name: "score", Type: KindInt}}
			ds, err := store.Init("g", cols, InitOptions{Model: model, PrimaryKey: []string{"gene"}})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := ds.Commit([]Row{{String("a"), Int(1)}, {String("b"), Int(2)}}, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			v2, err := ds.Commit([]Row{{String("b"), Int(2)}, {String("c"), Int(3)}}, []VersionID{v1}, "")
			if err != nil {
				t.Fatal(err)
			}
			rows, err := ds.MultiVersionCheckout(context.Background(), []VersionID{v1, v2}, []SetOp{SetIntersect})
			if err != nil {
				t.Fatal(err)
			}
			sameGenes(t, "v1∩v2", rows, "b")
			rows, err = ds.MultiVersionCheckout(context.Background(), []VersionID{v1, v2}, []SetOp{SetUnion})
			if err != nil {
				t.Fatal(err)
			}
			sameGenes(t, "v1∪v2", rows, "a", "b", "c")
		})
	}
}

func TestRunMultiVersionSQL(t *testing.T) {
	store, _, _ := threeVersionStore(t)

	r, err := store.Run("SELECT count(*) FROM VERSION 2 INTERSECT 3 OF CVD genes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 1 {
		t.Fatalf("intersect count = %d, want 1", r.Rows[0][0].I)
	}

	r, err = store.Run("SELECT gene FROM VERSION 2 UNION 3 OF CVD genes ORDER BY gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || r.Rows[0][0].S != "brca1" {
		t.Fatalf("union rows = %v", r.Rows)
	}

	r, err = store.Run("SELECT gene FROM VERSION 2 EXCEPT 3 OF CVD genes ORDER BY gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].S != "brca1" || r.Rows[1][0].S != "egfr" {
		t.Fatalf("except rows = %v", r.Rows)
	}

	// Chains compose left-associatively in SQL too.
	r, err = store.Run("SELECT count(*) FROM VERSION 2 UNION 3 EXCEPT 1 OF CVD genes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 3 {
		t.Fatalf("chain count = %d, want 3", r.Rows[0][0].I)
	}

	// Aliases still work, and temp tables are cleaned up.
	if _, err := store.Run("SELECT t.gene FROM VERSION 2 INTERSECT 3 OF CVD genes AS t"); err != nil {
		t.Fatal(err)
	}
	for _, n := range store.DB().TableNames() {
		if len(n) > 13 && n[:13] == "__orpheus_tmp" {
			t.Fatalf("leftover temp table %s", n)
		}
	}

	// Unknown versions in the chain are rejected.
	if _, err := store.Run("SELECT * FROM VERSION 2 INTERSECT 9 OF CVD genes"); err == nil {
		t.Fatal("unknown version in chain accepted")
	}
}

func TestStorageBreakdown(t *testing.T) {
	_, ds, _ := threeVersionStore(t)
	b := ds.StorageBreakdown()
	if b.TotalBytes <= 0 {
		t.Fatal("zero total")
	}
	if b.MembershipBytes <= 0 || b.MembershipBytes >= b.TotalBytes {
		t.Fatalf("membership bytes = %d of %d", b.MembershipBytes, b.TotalBytes)
	}
	if b.DataBytes+b.MembershipBytes != b.TotalBytes {
		t.Fatalf("breakdown does not sum: %d + %d != %d", b.DataBytes, b.MembershipBytes, b.TotalBytes)
	}
	if b.SystemMembershipBytes <= 0 {
		t.Fatal("system membership missing")
	}
}
