package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

func protCols() []engine.Column {
	return []engine.Column{
		{Name: "protein1", Type: engine.KindString},
		{Name: "protein2", Type: engine.KindString},
		{Name: "neighborhood", Type: engine.KindInt},
		{Name: "cooccurrence", Type: engine.KindInt},
		{Name: "coexpression", Type: engine.KindInt},
	}
}

func protRow(p1, p2 string, n, co, ce int64) engine.Row {
	return engine.Row{
		engine.StringValue(p1), engine.StringValue(p2),
		engine.IntValue(n), engine.IntValue(co), engine.IntValue(ce),
	}
}

// initModels lists the model names Init accepts: the one core serves and
// the legacy default, which starts the same one-partition layout.
func initModels() []ModelKind {
	return []ModelKind{PartitionedRlistModel, legacySplitByRlist}
}

// catalogModel reads the model name the catalog records for a CVD.
func catalogModel(db *engine.DB, name string) string {
	var model string
	db.Table(catalogTable).Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			model = row[1].S
		}
		return true
	})
	return model
}

func sortedRids(rs []vgraph.RecordID) []vgraph.RecordID {
	out := append([]vgraph.RecordID(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestModelSemantics runs the paper's Figure 1 scenario through a CVD under
// every model name Init accepts: branch, merge with primary-key precedence,
// record identity sharing, and diff. The paper layouts' checkouts are
// checked in internal/experiments.
func TestModelSemantics(t *testing.T) {
	for _, kind := range initModels() {
		t.Run(string(kind), func(t *testing.T) {
			db := engine.NewDB()
			c, err := Init(db, "prot", protCols(), InitOptions{
				Model:      kind,
				PrimaryKey: []string{"protein1", "protein2"},
			})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := c.Commit(context.Background(), []engine.Row{
				protRow("A", "B", 0, 53, 0),
				protRow("A", "C", 0, 87, 0),
				protRow("D", "E", 426, 0, 164),
			}, nil, "root")
			if err != nil {
				t.Fatal(err)
			}
			v2, err := c.Commit(context.Background(), []engine.Row{
				protRow("A", "B", 0, 53, 83), // update
				protRow("A", "C", 0, 87, 0),
				protRow("D", "E", 426, 0, 164),
				protRow("F", "G", 0, 227, 975), // insert
			}, []vgraph.VersionID{v1}, "branch 2")
			if err != nil {
				t.Fatal(err)
			}
			v3, err := c.Commit(context.Background(), []engine.Row{
				protRow("A", "C", 0, 87, 0), // A-B deleted
				protRow("D", "E", 426, 0, 164),
				protRow("H", "I", 225, 0, 73),
			}, []vgraph.VersionID{v1}, "branch 3")
			if err != nil {
				t.Fatal(err)
			}

			got, err := c.Checkout(v2)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 {
				t.Fatalf("checkout v2: %d rows", len(got))
			}

			// Multi-version checkout with precedence: A-B comes from v2.
			merged, err := c.Checkout(v2, v3)
			if err != nil {
				t.Fatal(err)
			}
			if len(merged) != 5 {
				t.Fatalf("merged checkout: %d rows, want 5", len(merged))
			}
			for _, r := range merged {
				if r[0].S == "A" && r[1].S == "B" && r[4].I != 83 {
					t.Fatal("precedence: v2's A-B should win")
				}
			}
			v4, err := c.Commit(context.Background(), merged, []vgraph.VersionID{v2, v3}, "merge")
			if err != nil {
				t.Fatal(err)
			}

			// Record identity: A-C and D-E shared across v1 and v4.
			rl1, err := c.Rlist(v1)
			if err != nil {
				t.Fatal(err)
			}
			rl4, err := c.Rlist(v4)
			if err != nil {
				t.Fatal(err)
			}
			if common := vgraph.IntersectSize(sortedRids(rl1), sortedRids(rl4)); common != 2 {
				t.Fatalf("v1∩v4 rids = %d, want 2", common)
			}

			onlyA, onlyB, err := c.Diff(v2, v3)
			if err != nil {
				t.Fatal(err)
			}
			if len(onlyA) != 2 || len(onlyB) != 1 {
				t.Fatalf("diff: %d, %d; want 2, 1", len(onlyA), len(onlyB))
			}
			if c.StorageBytes() <= 0 {
				t.Fatal("zero storage")
			}

			// Version graph structure.
			g, err := c.VersionGraph()
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != 4 || g.IsTree() {
				t.Fatal("graph shape wrong")
			}
			anc, err := c.Ancestors(v4)
			if err != nil || len(anc) != 3 {
				t.Fatalf("ancestors: %v, %v", anc, err)
			}
			desc, err := c.Descendants(v1)
			if err != nil || len(desc) != 3 {
				t.Fatalf("descendants: %v, %v", desc, err)
			}
		})
	}
}

// TestNoCrossVersionDiff verifies the implementation rule of Section 2.2:
// a record deleted and re-added gets a fresh rid.
func TestNoCrossVersionDiff(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row := protRow("A", "B", 1, 2, 3)
	v1, err := c.Commit(context.Background(), []engine.Row{row}, nil, "add")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Commit(context.Background(), nil, []vgraph.VersionID{v1}, "delete")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := c.Commit(context.Background(), []engine.Row{row}, []vgraph.VersionID{v2}, "re-add")
	if err != nil {
		t.Fatal(err)
	}
	rl1, _ := c.Rlist(v1)
	rl3, _ := c.Rlist(v3)
	if rl1[0] == rl3[0] {
		t.Fatal("re-added record must get a new rid (no cross-version diff)")
	}
	// But a record surviving from the direct parent keeps its rid.
	v4, err := c.Commit(context.Background(), []engine.Row{row}, []vgraph.VersionID{v3}, "keep")
	if err != nil {
		t.Fatal(err)
	}
	rl4, _ := c.Rlist(v4)
	if rl3[0] != rl4[0] {
		t.Fatal("unchanged record must keep its rid")
	}
}

func TestPrimaryKeyEnforcedPerVersion(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{PrimaryKey: []string{"protein1", "protein2"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Commit(context.Background(), []engine.Row{
		protRow("A", "B", 1, 2, 3),
		protRow("A", "B", 9, 9, 9),
	}, nil, "dup")
	if err == nil {
		t.Fatal("duplicate key within a version accepted")
	}
	// Across versions the same key with different payloads is fine.
	v1, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3)}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 9, 9, 9)}, []vgraph.VersionID{v1}, "v2"); err != nil {
		t.Fatal(err)
	}
}

func TestCommitValidation(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background(), []engine.Row{{engine.IntValue(1)}}, nil, "short"); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := c.Commit(context.Background(), nil, []vgraph.VersionID{42}, "bad parent"); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if _, err := c.Checkout(); err == nil {
		t.Fatal("empty checkout accepted")
	}
	if _, err := c.Checkout(42); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestInitValidation(t *testing.T) {
	db := engine.NewDB()
	if _, err := Init(db, "d", protCols(), InitOptions{PrimaryKey: []string{"nope"}}); err == nil {
		t.Fatal("bad pk accepted")
	}
	for _, kind := range []ModelKind{"martian", "a-table-per-version", "split-by-vlist"} {
		_, err := Init(db, "d", protCols(), InitOptions{Model: kind})
		if !errors.Is(err, ErrUnservedModel) || !strings.Contains(err.Error(), string(kind)) {
			t.Fatalf("model %q: err = %v, want ErrUnservedModel naming it", kind, err)
		}
	}
	// The legacy default names the layout every CVD starts in.
	if _, err := Init(db, "legacy", protCols(), InitOptions{Model: "split-by-rlist"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(db, "d", protCols(), InitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(db, "d", protCols(), InitOptions{}); err == nil {
		t.Fatal("duplicate CVD accepted")
	}
	if names := ListCVDs(db); len(names) != 2 || names[0] != "d" || names[1] != "legacy" {
		t.Fatalf("ListCVDs: %v", names)
	}
}

func TestOpenRoundTripAllModels(t *testing.T) {
	for _, kind := range initModels() {
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{Model: kind, PrimaryKey: []string{"protein1", "protein2"}})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3)}, nil, "v1")
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3), protRow("C", "D", 4, 5, 6)},
			[]vgraph.VersionID{v1}, "v2")
		if err != nil {
			t.Fatal(err)
		}

		path := t.TempDir() + "/s.gob"
		if err := db.Save(path); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		db2, err := engine.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Open(db2, "d")
		if err != nil {
			t.Fatalf("%s: open: %v", kind, err)
		}
		if got := catalogModel(db2, "d"); got != string(PartitionedRlistModel) {
			t.Fatalf("%s: catalog records model %q", kind, got)
		}
		rows, err := c2.Checkout(v2)
		if err != nil {
			t.Fatalf("%s: checkout after reload: %v", kind, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows", kind, len(rows))
		}
		// Committing after reload continues rid/vid allocation correctly.
		v3, err := c2.Commit(context.Background(), []engine.Row{protRow("E", "F", 7, 8, 9)}, []vgraph.VersionID{v2}, "v3")
		if err != nil {
			t.Fatalf("%s: commit after reload: %v", kind, err)
		}
		if v3 != v2+1 {
			t.Fatalf("%s: vid sequence broken: %d", kind, v3)
		}
		if _, err := Open(db2, "missing"); err == nil {
			t.Fatal("opening missing CVD should fail")
		}
	}
}

func TestDropRemovesEverything(t *testing.T) {
	for _, kind := range initModels() {
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{Model: kind})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3)}, nil, "v1"); err != nil {
			t.Fatal(err)
		}
		if err := c.Drop(); err != nil {
			t.Fatalf("%s: drop: %v", kind, err)
		}
		if names := ListCVDs(db); len(names) != 0 {
			t.Fatalf("%s: catalog not cleaned: %v", kind, names)
		}
		for _, n := range db.TableNames() {
			if n != catalogTable {
				t.Fatalf("%s: leftover table %s", kind, n)
			}
		}
	}
}

// TestRandomHistoriesAgreeWithReference drives every model name through random
// commit/checkout sequences and compares against a trivial reference that
// stores full row sets per version.
func TestRandomHistoriesAgreeWithReference(t *testing.T) {
	for _, kind := range initModels() {
		rng := rand.New(rand.NewSource(99))
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{Model: kind, PrimaryKey: []string{"protein1", "protein2"}})
		if err != nil {
			t.Fatal(err)
		}
		ref := map[vgraph.VersionID]map[string]bool{}
		var versions []vgraph.VersionID
		rowsOf := map[vgraph.VersionID][]engine.Row{}

		key := func(r engine.Row) string { return engine.EncodeKey(r...) }
		nextPair := 0
		mkRow := func() engine.Row {
			nextPair++
			return protRow(fmt.Sprintf("P%04d", nextPair), "Q", rng.Int63n(100), rng.Int63n(100), rng.Int63n(100))
		}

		// Root commit.
		var rows []engine.Row
		for i := 0; i < 10; i++ {
			rows = append(rows, mkRow())
		}
		v, err := c.Commit(context.Background(), rows, nil, "root")
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
		rowsOf[v] = rows
		ref[v] = map[string]bool{}
		for _, r := range rows {
			ref[v][key(r)] = true
		}

		for step := 0; step < 25; step++ {
			parent := versions[rng.Intn(len(versions))]
			cur := append([]engine.Row(nil), rowsOf[parent]...)
			// Random edits.
			for k := 0; k < 3; k++ {
				switch rng.Intn(3) {
				case 0:
					cur = append(cur, mkRow())
				case 1:
					if len(cur) > 1 {
						i := rng.Intn(len(cur))
						cur = append(cur[:i], cur[i+1:]...)
					}
				case 2:
					if len(cur) > 0 {
						i := rng.Intn(len(cur))
						nr := engine.CloneRow(cur[i])
						nr[4] = engine.IntValue(rng.Int63n(1000) + 1000)
						cur[i] = nr
					}
				}
			}
			v, err := c.Commit(context.Background(), cur, []vgraph.VersionID{parent}, "step")
			if err != nil {
				t.Fatalf("%s step %d: %v", kind, step, err)
			}
			versions = append(versions, v)
			rowsOf[v] = cur
			ref[v] = map[string]bool{}
			for _, r := range cur {
				ref[v][key(r)] = true
			}
		}

		// Every version checks out to exactly its reference row set.
		for _, v := range versions {
			got, err := c.Checkout(v)
			if err != nil {
				t.Fatalf("%s: checkout %d: %v", kind, v, err)
			}
			if len(got) != len(ref[v]) {
				t.Fatalf("%s: v%d has %d rows, want %d", kind, v, len(got), len(ref[v]))
			}
			for _, r := range got {
				if !ref[v][key(r)] {
					t.Fatalf("%s: v%d contains unexpected row %v", kind, v, r)
				}
			}
		}
	}
}

// TestTranslationsMatchTable1: a checkout translates to Table 1's
// split-by-rlist join and a commit to its versioning-table insert, both
// against the partition that holds the version, plus the partition-map row
// the commit adds. The five paper layouts' strings live in
// internal/experiments.
func TestTranslationsMatchTable1(t *testing.T) {
	c, vids := branchyCVD(t, 12)
	repartition(t, c, 2.0)
	v := vids[len(vids)-1]
	p, _ := c.model.PartitionOf(v)
	co, err := c.CheckoutSQL("tp", v)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("SELECT * INTO tp FROM d_part%d_data, (SELECT unnest(rlist) AS rid_tmp FROM d_part%d_version WHERE vid = %d) AS tmp WHERE rid = rid_tmp;", p, p, v)
	if co != want {
		t.Fatalf("checkout SQL:\n%s\nwant:\n%s", co, want)
	}
	cm, err := c.CommitSQL("tp", v)
	if err != nil {
		t.Fatal(err)
	}
	next := c.LatestVersion() + 1
	want = fmt.Sprintf("INSERT INTO d_part%d_version VALUES (%d, ARRAY[SELECT rid FROM tp]);\nINSERT INTO d__partmap VALUES (%d, %d);", p, next, next, p)
	if cm != want {
		t.Fatalf("commit SQL:\n%s\nwant:\n%s", cm, want)
	}
	if _, err := c.CheckoutSQL("tp", 999); err == nil {
		t.Fatal("translation of an unknown version accepted")
	}
}

func TestHashRowDistinguishesRows(t *testing.T) {
	a := HashRow(protRow("A", "B", 1, 2, 3))
	b := HashRow(protRow("A", "B", 1, 2, 4))
	c := HashRow(protRow("A", "B", 1, 2, 3))
	if a == b {
		t.Fatal("different rows collide")
	}
	if a != c {
		t.Fatal("equal rows must hash equally")
	}
}

func TestCheckoutUnderAllJoinMethods(t *testing.T) {
	// Checkout honors the session join_method setting (Appendix D.1);
	// results must be identical across hash, merge, and index-nested-loop
	// joins.
	for _, kind := range initModels() {
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{Model: kind})
		if err != nil {
			t.Fatal(err)
		}
		var rows []engine.Row
		for i := 0; i < 300; i++ {
			rows = append(rows, protRow(fmt.Sprintf("P%03d", i), "Q", int64(i), 0, 0))
		}
		v1, err := c.Commit(context.Background(), rows, nil, "root")
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.Commit(context.Background(), rows[:150], []vgraph.VersionID{v1}, "half")
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"hash", "merge", "inlj"} {
			db.SetSetting("join_method", method)
			got, err := c.Checkout(v2)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, method, err)
			}
			if len(got) != 150 {
				t.Fatalf("%s/%s: %d rows", kind, method, len(got))
			}
		}
	}
}
