package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/cache"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

func TestHeatNilReceiverSafe(t *testing.T) {
	var h *Heat
	h.RecordCheckout([]vgraph.VersionID{1}, true)
	h.RecordCommit([]vgraph.VersionID{1})
	h.RecordMerge(1, 2)
	if w := h.Weights(); w != nil {
		t.Fatalf("nil heat weights = %v, want nil", w)
	}
	snap := h.Snapshot(5, nil)
	if snap.Checkouts != 0 || snap.WindowSeconds == 0 {
		t.Fatalf("nil heat snapshot = %+v", snap)
	}
}

func TestHeatCountersAndWeights(t *testing.T) {
	h := NewHeat()
	now := time.Unix(1_700_000_000, 0)
	h.Clock = func() time.Time { return now }

	h.RecordCheckout([]vgraph.VersionID{1}, false)
	h.RecordCheckout([]vgraph.VersionID{1}, true)
	h.RecordCheckout([]vgraph.VersionID{1, 2}, false) // multi-version: one op, two credits
	h.RecordCommit([]vgraph.VersionID{2})
	h.RecordMerge(1, 3)

	snap := h.Snapshot(10, nil)
	if snap.Checkouts != 3 || snap.CacheHits != 1 || snap.Commits != 1 || snap.Merges != 1 {
		t.Fatalf("totals = %+v", snap)
	}
	if snap.CacheHitRatio != 1.0/3 {
		t.Fatalf("hit ratio = %g, want 1/3", snap.CacheHitRatio)
	}
	if snap.TrackedVersions != 3 {
		t.Fatalf("tracked = %d, want 3", snap.TrackedVersions)
	}
	// 5 operations inside the window.
	if want := 5.0 / float64(snap.WindowSeconds); snap.OpsPerSecond != want {
		t.Fatalf("ops/s = %g, want %g", snap.OpsPerSecond, want)
	}

	// Hottest first: v1 has 3 checkout credits + 1 merge credit.
	if len(snap.TopVersions) == 0 || snap.TopVersions[0].Version != 1 {
		t.Fatalf("top versions = %+v, want v1 first", snap.TopVersions)
	}
	if snap.TopVersions[0].Checkouts != 4 {
		t.Fatalf("v1 credits = %d, want 4 (3 checkouts + 1 merge)", snap.TopVersions[0].Checkouts)
	}
	if snap.TopVersions[0].CacheHits != 1 {
		t.Fatalf("v1 hits = %d, want 1", snap.TopVersions[0].CacheHits)
	}
	if ms := snap.TopVersions[0].LastAccess; ms != now.UnixNano()/int64(time.Millisecond) {
		t.Fatalf("v1 last access = %d", ms)
	}

	w := h.Weights()
	if w[1] != 4 || w[2] != 2 || w[3] != 1 {
		t.Fatalf("weights = %v, want {1:4 2:2 3:1}", w)
	}

	// topK truncation, deterministic tie-break by version id.
	if got := h.Snapshot(2, nil); len(got.TopVersions) != 2 {
		t.Fatalf("topK=2 returned %d rows", len(got.TopVersions))
	}
}

func TestHeatBranchAttributionAndWindow(t *testing.T) {
	h := NewHeat()
	base := time.Unix(1_700_000_000, 0)
	now := base
	h.Clock = func() time.Time { return now }

	// An old access outside the 60s window: counted in totals, not in rates.
	h.RecordCheckout([]vgraph.VersionID{1}, false)
	now = base.Add(200 * time.Second)
	h.RecordCheckout([]vgraph.VersionID{2}, false)
	h.RecordCheckout([]vgraph.VersionID{3}, false)

	branches := []*BranchInfo{
		{Name: "main", Head: 2, Lineage: bitmap.FromSlice([]int64{1, 2})},
		{Name: "exp", Head: 3, Lineage: bitmap.FromSlice([]int64{1, 3})},
		{Name: "idle", Head: 1, Lineage: bitmap.FromSlice([]int64{1})},
	}
	snap := h.Snapshot(10, branches)
	if snap.OpsPerSecond != 2.0/float64(snap.WindowSeconds) {
		t.Fatalf("ops/s = %g, want only the 2 windowed ops", snap.OpsPerSecond)
	}
	rates := map[string]int64{}
	for _, b := range snap.Branches {
		rates[b.Name] = b.Recent
	}
	// v2 is on main's lineage, v3 on exp's; the stale v1 access credits no one.
	if rates["main"] != 1 || rates["exp"] != 1 || rates["idle"] != 0 {
		t.Fatalf("branch rates = %v, want main:1 exp:1 idle:0", rates)
	}
	for _, b := range snap.Branches {
		if want := float64(b.Recent) / float64(snap.WindowSeconds); b.PerSecond != want {
			t.Fatalf("branch %s per-second = %g, want %g", b.Name, b.PerSecond, want)
		}
	}
}

func TestHeatConcurrentRecording(t *testing.T) {
	h := NewHeat()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				v := vgraph.VersionID(j % 7)
				h.RecordCheckout([]vgraph.VersionID{v}, j%2 == 0)
				if j%50 == 0 {
					h.RecordCommit([]vgraph.VersionID{v})
					_ = h.Weights()
					_ = h.Snapshot(3, nil)
				}
			}
		}(i)
	}
	wg.Wait()
	snap := h.Snapshot(10, nil)
	if snap.Checkouts != workers*per {
		t.Fatalf("checkouts = %d, want %d (atomic counters must not lose ops)", snap.Checkouts, workers*per)
	}
	var credits int64
	for _, w := range h.Weights() {
		credits += w
	}
	if want := int64(workers * per * 51 / 50); credits != want {
		t.Fatalf("version credits = %d, want %d", credits, want)
	}
}

// TestCVDRecordsHeat wires a real CVD: checkouts, commits, and merges must
// land in the attached tracker, including the cache-hit flag on the checkout
// fast path (a cache is attached so the second identical checkout hits).
func TestCVDRecordsHeat(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "prot", protCols(), InitOptions{
		PrimaryKey: []string{"protein1", "protein2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeat()
	c.SetHeat(h)
	c.SetCache(cache.New(1<<20, db.Stats()))
	v1, err := c.Commit(context.Background(), []engine.Row{
		protRow("A", "B", 0, 53, 0),
		protRow("A", "C", 0, 87, 0),
	}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Commit(context.Background(), []engine.Row{
		protRow("A", "B", 0, 53, 0),
		protRow("D", "E", 426, 0, 164),
	}, []vgraph.VersionID{v1}, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout(v1); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.Checkout(v1); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := c.Checkout(v2); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot(10, c.Branches())
	if snap.Checkouts != 3 {
		t.Fatalf("checkouts = %d, want 3", snap.Checkouts)
	}
	if snap.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (only the second checkout repeats)", snap.CacheHits)
	}
	if snap.Commits != 2 {
		t.Fatalf("commits = %d, want 2", snap.Commits)
	}
	w := h.Weights()
	// v1: 2 checkouts + 1 commit-parent credit.
	if w[v1] != 3 {
		t.Fatalf("v1 weight = %d, want 3", w[v1])
	}
	if w[v2] != 1 {
		t.Fatalf("v2 weight = %d, want 1", w[v2])
	}
	if c.Heat() != h {
		t.Fatal("Heat() accessor lost the tracker")
	}
}
