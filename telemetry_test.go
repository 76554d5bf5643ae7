package orpheusdb

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDatasetHeatAggregation drives the public Dataset surface and checks the
// heat table a server would serve: totals, hit ratio, hottest-first ordering,
// and the optimizer-facing weight map.
func TestDatasetHeatAggregation(t *testing.T) {
	_, ds, v1, v2 := geneStore(t)
	if _, err := ds.Checkout(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Checkout(v1); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := ds.Checkout(v2); err != nil {
		t.Fatal(err)
	}
	snap, err := ds.Heat(5)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Checkouts != 3 || snap.CacheHits != 1 || snap.Commits != 2 {
		t.Fatalf("heat totals = %+v", snap)
	}
	if len(snap.TopVersions) == 0 || snap.TopVersions[0].Version != v1 {
		t.Fatalf("top versions = %+v, want v1 hottest", snap.TopVersions)
	}
	w := ds.HeatWeights()
	// v1: 2 checkouts + 1 commit-parent credit; v2: 1 checkout.
	if w[v1] != 3 || w[v2] != 1 {
		t.Fatalf("weights = %v, want {v1:3 v2:1}", w)
	}
}

// TestMetricsHistorySidecarPersistence checks the restart story: a
// file-backed store saves its retained history next to the checkpoint, and a
// reopened store's sampler restores it before recording anything new.
func TestMetricsHistorySidecarPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.bin")
	store, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.StartMetricsHistory(HistoryOptions{
		Tiers: []HistoryTier{{Interval: time.Millisecond, Retain: time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.StartMetricsHistory(HistoryOptions{}); err == nil {
		t.Fatal("second sampler accepted on the same store")
	}
	if store.MetricsHistory() != h {
		t.Fatal("MetricsHistory lost the running sampler")
	}

	// Give the sampler real points to persist, then checkpoint.
	ds, err := store.Init("genes", []Column{{Name: "gene", Type: KindString}}, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ds.Commit([]Row{{String("brca1")}}, nil, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Checkout(v1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(h.Query("orpheus_checkout_seconds", time.Time{})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler recorded no checkout series within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	store.StopMetricsHistory()
	if store.MetricsHistory() != nil {
		t.Fatal("sampler still attached after stop")
	}
	if _, err := os.Stat(path + ".history"); err != nil {
		t.Fatalf("history sidecar missing: %v", err)
	}
	wantSeries := len(h.Query("", time.Time{}))

	// Reopen: the restored sampler serves the prior run's series even before
	// its first tick.
	store2, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := store2.StartMetricsHistory(HistoryOptions{
		Tiers: []HistoryTier{{Interval: time.Millisecond, Retain: time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.StopMetricsHistory()
	if got := len(h2.Query("", time.Time{})); got < wantSeries {
		t.Fatalf("restored %d series, want >= %d from the sidecar", got, wantSeries)
	}
	if len(h2.Query("orpheus_checkout_seconds", time.Time{})) == 0 {
		t.Fatal("restored history lost the checkout series")
	}
}
