package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"orpheusdb/internal/bitmap"
)

// buildJoinTable creates a table of n rows keyed by rid, optionally clustered
// on rid or on a scrambled pk column.
func buildJoinTable(t *testing.T, n int, clusterOn string) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable("data", []Column{
		{Name: "rid", Type: KindInt},
		{Name: "pk", Type: KindInt},
		{Name: "val", Type: KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		_, err := tab.Insert(Row{IntValue(int64(i)), IntValue(int64(perm[i])), IntValue(int64(i * 2))})
		if err != nil {
			t.Fatal(err)
		}
	}
	if clusterOn != "" {
		if err := tab.Cluster(clusterOn); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("rid"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func ridsOfRows(rows []Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestJoinMethodsAgree(t *testing.T) {
	for _, clusterOn := range []string{"rid", "pk"} {
		_, tab := buildJoinTable(t, 3000, clusterOn)
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 5; trial++ {
			k := 1 + rng.Intn(500)
			want := make([]int64, 0, k)
			seen := map[int64]bool{}
			for len(want) < k {
				r := rng.Int63n(3000)
				if !seen[r] {
					seen[r] = true
					want = append(want, r)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			var results [][]int64
			for _, m := range []JoinMethod{HashJoin, MergeJoin, IndexNestedLoopJoin} {
				rows, err := JoinRids(tab, 0, want, m)
				if err != nil {
					t.Fatalf("%v on %s-clustered: %v", m, clusterOn, err)
				}
				got := ridsOfRows(rows)
				if len(got) != len(want) {
					t.Fatalf("%v on %s-clustered: %d rows, want %d", m, clusterOn, len(got), len(want))
				}
				results = append(results, got)
			}
			for i := 1; i < len(results); i++ {
				for j := range want {
					if results[i][j] != results[0][j] || results[0][j] != want[j] {
						t.Fatalf("method results disagree at %d", j)
					}
				}
			}
		}
	}
}

func TestJoinDuplicateRids(t *testing.T) {
	_, tab := buildJoinTable(t, 100, "rid")
	rows, err := JoinRids(tab, 0, []int64{5, 5, 7}, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("duplicates should yield one row each: got %d", len(rows))
	}
}

func TestJoinMissingRids(t *testing.T) {
	_, tab := buildJoinTable(t, 100, "rid")
	for _, m := range []JoinMethod{HashJoin, MergeJoin, IndexNestedLoopJoin} {
		rows, err := JoinRids(tab, 0, []int64{50, 5000}, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("%v: got %d rows, want 1", m, len(rows))
		}
	}
}

func TestHashJoinCostLinearInTable(t *testing.T) {
	// The Appendix D.1 claim behind the checkout cost model: hash-join cost
	// is one sequential scan of the data table regardless of rlist size.
	db, tab := buildJoinTable(t, RowsPerPage*10, "rid")
	for _, k := range []int{10, 1000} {
		rids := make([]int64, k)
		for i := range rids {
			rids[i] = int64(i)
		}
		db.Stats().Reset()
		if _, err := JoinRids(tab, 0, rids, HashJoin); err != nil {
			t.Fatal(err)
		}
		snap := db.Stats().Snapshot()
		if snap.SeqPages != 10 {
			t.Fatalf("|rlist|=%d: SeqPages = %d, want 10", k, snap.SeqPages)
		}
		if snap.RandPages != 0 {
			t.Fatalf("|rlist|=%d: RandPages = %d, want 0", k, snap.RandPages)
		}
	}
}

func TestMergeJoinClusteredIsSequential(t *testing.T) {
	db, tab := buildJoinTable(t, RowsPerPage*8, "rid")
	db.Stats().Reset()
	if _, err := JoinRids(tab, 0, []int64{0, 100, 2000}, MergeJoin); err != nil {
		t.Fatal(err)
	}
	snap := db.Stats().Snapshot()
	// Ordered traversal of a rid-clustered heap: sequential pages, at most
	// one random fetch to land on the first page.
	if snap.RandPages > 1 {
		t.Fatalf("RandPages = %d on clustered merge join", snap.RandPages)
	}
}

func TestMergeJoinPKClusteredIsRandom(t *testing.T) {
	db, tab := buildJoinTable(t, RowsPerPage*8, "pk")
	db.Stats().Reset()
	if _, err := JoinRids(tab, 0, []int64{0, 100, 2000}, MergeJoin); err != nil {
		t.Fatal(err)
	}
	snap := db.Stats().Snapshot()
	// Following the rid index over a pk-clustered heap hops pages randomly:
	// the pathological plan of Figure 19e.
	if snap.RandPages < int64(RowsPerPage*4) {
		t.Fatalf("RandPages = %d; expected heavy random access", snap.RandPages)
	}
}

func TestINLJDenseDegradesToSequential(t *testing.T) {
	// When the probe list covers the table and the heap is rid-clustered,
	// sorted probes advance page by page: Appendix D.1's observation that
	// "random accesses are eventually reduced to a full sequential scan".
	db, tab := buildJoinTable(t, RowsPerPage*8, "rid")
	all := make([]int64, RowsPerPage*8)
	for i := range all {
		all[i] = int64(i)
	}
	db.Stats().Reset()
	if _, err := JoinRids(tab, 0, all, IndexNestedLoopJoin); err != nil {
		t.Fatal(err)
	}
	snap := db.Stats().Snapshot()
	if snap.RandPages > 1 || snap.SeqPages < 7 {
		t.Fatalf("dense INLJ: seq=%d rand=%d; want near-sequential", snap.SeqPages, snap.RandPages)
	}
}

func TestINLJSparseOnPKClusteredIsPerProbeRandom(t *testing.T) {
	db, tab := buildJoinTable(t, RowsPerPage*8, "pk")
	probes := []int64{1, 500, 1000, 1500}
	db.Stats().Reset()
	if _, err := JoinRids(tab, 0, probes, IndexNestedLoopJoin); err != nil {
		t.Fatal(err)
	}
	snap := db.Stats().Snapshot()
	if snap.RandPages < int64(len(probes))-1 {
		t.Fatalf("sparse INLJ on pk-clustered: rand=%d, want ~%d", snap.RandPages, len(probes))
	}
}

func TestINLJWithoutIndexFails(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("noix", []Column{{Name: "rid", Type: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinRids(tab, 0, []int64{1}, IndexNestedLoopJoin); err == nil {
		t.Fatal("INLJ without index should fail")
	}
}

func TestParseJoinMethod(t *testing.T) {
	for s, want := range map[string]JoinMethod{
		"hash": HashJoin, "merge-join": MergeJoin, "inlj": IndexNestedLoopJoin,
	} {
		got, err := ParseJoinMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseJoinMethod(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseJoinMethod("quantum"); err == nil {
		t.Error("bad method accepted")
	}
	for _, m := range []JoinMethod{HashJoin, MergeJoin, IndexNestedLoopJoin, JoinMethod(9)} {
		if m.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestHashJoinGeneric(t *testing.T) {
	build := []Row{{IntValue(1), StringValue("a")}, {IntValue(2), StringValue("b")}}
	probe := []Row{{IntValue(2), StringValue("x")}, {IntValue(2), StringValue("y")}, {IntValue(3), StringValue("z")}}
	var got []string
	HashJoinGeneric(build, probe, []int{0}, []int{0}, nil, func(b, p Row) {
		got = append(got, fmt.Sprintf("%s%s", b[1].S, p[1].S))
	})
	sort.Strings(got)
	if len(got) != 2 || got[0] != "bx" || got[1] != "by" {
		t.Fatalf("generic join: %v", got)
	}
}

// TestScanCountsRowsOncePerPage: Table.Scan and both probe scans add to the
// shared RowsScanned counter once per page, and the totals are what the
// per-row adds gave: every live row visited, tombstones not, and the row an
// early stop ended on included.
func TestScanCountsRowsOncePerPage(t *testing.T) {
	n := RowsPerPage*20 + 37 // ≥ setJoinMinPages pages, a short last one
	db, tab := buildJoinTable(t, n, "")
	var dead []RowID
	tab.Scan(func(id RowID, r Row) bool {
		if r[0].I%5 == 0 {
			dead = append(dead, id)
		}
		return true
	})
	tab.DeleteBatch(dead)
	live, pages := int64(n-len(dead)), int64(tab.NumPages())

	db.Stats().Reset()
	tab.Scan(func(RowID, Row) bool { return true })
	if got := db.Stats().Snapshot(); got.RowsScanned != live || got.SeqPages != pages {
		t.Fatalf("full scan: %d rows over %d pages, want %d over %d", got.RowsScanned, got.SeqPages, live, pages)
	}

	stopAfter := int64(RowsPerPage + 10) // ends inside the second page
	db.Stats().Reset()
	seen := int64(0)
	tab.Scan(func(RowID, Row) bool { seen++; return seen < stopAfter })
	if got := db.Stats().Snapshot(); got.RowsScanned != stopAfter || got.SeqPages != 2 {
		t.Fatalf("stopped scan: %d rows over %d pages, want %d over 2", got.RowsScanned, got.SeqPages, stopAfter)
	}

	set := bitmap.FromSlice([]int64{1, 2, 3, int64(n - 1), int64(n / 2)})
	defer SetJoinWorkers(0)
	var first StatSnapshot
	for _, workers := range []int{1, 4} {
		SetJoinWorkers(workers)
		db.Stats().Reset()
		rows, err := JoinRidsSet(tab, 0, set, HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		got := db.Stats().Snapshot()
		if len(rows) != 5 || got.RowsScanned != live || got.SeqPages != pages || got.RandPages != 0 {
			t.Fatalf("%d workers: %d rows out, %d scanned over %d+%d pages, want 5, %d over %d+0",
				workers, len(rows), got.RowsScanned, got.SeqPages, got.RandPages, live, pages)
		}
		if workers == 1 {
			first = got
		} else if got != first {
			t.Fatalf("parallel scan stats %+v differ from sequential %+v", got, first)
		}
	}
}
