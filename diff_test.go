package orpheusdb

import (
	"context"
	"testing"
)

// Diff edge cases: identical versions, disjoint versions, diffs across a
// schema-evolved (AddColumn) boundary, and duplicate vids passed to
// Checkout. Run under every model name InitOptions accepts.

// initModels lists the model names InitOptions accepts: the one the store
// serves and the legacy default, which starts the same one-partition layout.
func initModels() []ModelKind {
	return []ModelKind{PartitionedRlist, "split-by-rlist"}
}

func TestDiffIdenticalVersions(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			store := NewStore()
			ds, err := store.Init("d", []Column{{Name: "gene", Type: KindString}},
				InitOptions{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			rows := []Row{{String("a")}, {String("b")}}
			v1, err := ds.Commit(rows, nil, "base")
			if err != nil {
				t.Fatal(err)
			}
			// Same rows re-committed from v1 keep their rids, so both diff
			// directions are empty.
			v2, err := ds.Commit(rows, []VersionID{v1}, "same")
			if err != nil {
				t.Fatal(err)
			}
			onlyA, onlyB, err := ds.Diff(v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			if len(onlyA) != 0 || len(onlyB) != 0 {
				t.Fatalf("identical versions diff: %d, %d rows", len(onlyA), len(onlyB))
			}
			// A version diffed against itself is empty too.
			onlyA, onlyB, err = ds.Diff(v1, v1)
			if err != nil {
				t.Fatal(err)
			}
			if len(onlyA) != 0 || len(onlyB) != 0 {
				t.Fatalf("self diff: %d, %d rows", len(onlyA), len(onlyB))
			}
		})
	}
}

func TestDiffDisjointVersions(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			store := NewStore()
			ds, err := store.Init("d", []Column{{Name: "gene", Type: KindString}},
				InitOptions{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := ds.Commit([]Row{{String("a")}, {String("b")}}, nil, "left")
			if err != nil {
				t.Fatal(err)
			}
			// A root commit with entirely different rows shares no records.
			v2, err := ds.Commit([]Row{{String("x")}, {String("y")}, {String("z")}}, nil, "right")
			if err != nil {
				t.Fatal(err)
			}
			onlyA, onlyB, err := ds.Diff(v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			if len(onlyA) != 2 || len(onlyB) != 3 {
				t.Fatalf("disjoint diff: %d, %d rows; want 2, 3", len(onlyA), len(onlyB))
			}
			sameGenes(t, "onlyA", onlyA, "a", "b")
			sameGenes(t, "onlyB", onlyB, "x", "y", "z")
		})
	}
}

func TestDiffAcrossSchemaEvolution(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			store := NewStore()
			ds, err := store.Init("d", []Column{{Name: "gene", Type: KindString}},
				InitOptions{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := ds.Commit([]Row{{String("a")}, {String("b")}}, nil, "narrow")
			if err != nil {
				t.Fatal(err)
			}
			// v2 adds a column. Under the no-cross-version-diff rule a row
			// re-submitted in the widened shape hashes differently, so "a"
			// becomes a new record: the diff reports both sides in full.
			wide := []Column{
				{Name: "gene", Type: KindString},
				{Name: "score", Type: KindInt},
			}
			v2, err := ds.CommitWithSchema(context.Background(), wide, []Row{
				{String("a"), Null()},
				{String("c"), Int(9)},
			}, []VersionID{v1}, "widen")
			if err != nil {
				t.Fatal(err)
			}
			cols, onlyA, onlyB, err := ds.DiffWithColumns(v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			if len(cols) != 2 {
				t.Fatalf("diff schema has %d columns, want 2", len(cols))
			}
			sameGenes(t, "onlyA", onlyA, "a", "b")
			sameGenes(t, "onlyB", onlyB, "a", "c")
			// Every returned row is padded to the evolved schema.
			for _, r := range append(append([]Row{}, onlyA...), onlyB...) {
				if len(r) != 2 {
					t.Fatalf("diff row has %d values, want 2", len(r))
				}
			}
		})
	}
}

func TestCheckoutDuplicateVids(t *testing.T) {
	for _, model := range initModels() {
		t.Run(string(model), func(t *testing.T) {
			store := NewStore()
			ds, err := store.Init("d", []Column{{Name: "gene", Type: KindString}},
				InitOptions{Model: model, PrimaryKey: []string{"gene"}})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := ds.Commit([]Row{{String("a")}, {String("b")}}, nil, "base")
			if err != nil {
				t.Fatal(err)
			}
			// The same version listed twice must not duplicate records.
			rows, err := ds.Checkout(v1, v1, v1)
			if err != nil {
				t.Fatal(err)
			}
			sameGenes(t, "dup vids", rows, "a", "b")
		})
	}
}
