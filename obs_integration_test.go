package orpheusdb

import (
	"context"
	"fmt"
	"testing"

	"orpheusdb/internal/obs"
)

// TestCheckoutLatencyHistogramsSplitHitMiss commits a dataset large enough
// that materializing it measurably outweighs a cache lookup, then checks the
// two checkout histograms tell the story: the cold checkout lands in the miss
// series, the hot repeats land in the hit series, and the hit p50 sits below
// the miss p50 — the distribution pair /metrics exposes as
// orpheus_checkout_seconds{result=...}.
func TestCheckoutLatencyHistogramsSplitHitMiss(t *testing.T) {
	s := NewStore()
	ds, err := s.Init("wide", []Column{
		{Name: "id", Type: KindInt},
		{Name: "payload", Type: KindString},
	}, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), String(fmt.Sprintf("payload-%06d", i))}
	}
	vid, err := ds.Commit(rows, nil, "bulk")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ds.Checkout(vid); err != nil { // cold: materializes
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // hot: served from the checkout cache
		if _, err := ds.Checkout(vid); err != nil {
			t.Fatal(err)
		}
	}

	hit, miss := s.obs.core.CheckoutHit, s.obs.core.CheckoutMiss
	if got := miss.Count(); got < 1 {
		t.Fatalf("miss histogram count = %d, want >= 1", got)
	}
	if got := hit.Count(); got < 20 {
		t.Fatalf("hit histogram count = %d, want >= 20", got)
	}
	hitP50, missP50 := hit.Quantile(0.50), miss.Quantile(0.50)
	if hitP50 <= 0 || missP50 <= 0 {
		t.Fatalf("degenerate p50s: hit %v, miss %v", hitP50, missP50)
	}
	if hitP50 >= missP50 {
		t.Fatalf("hot checkout p50 (%.6fs) not below cold checkout p50 (%.6fs)", hitP50, missP50)
	}
	if c := s.CacheStats(); c.Hits < 20 || c.Misses < 1 {
		t.Fatalf("cache counters disagree with histograms: %+v", c)
	}
}

// TestManualOptimizeIsObserved: a Dataset.Optimize with no optimizer running
// goes through the one repartitioning executor, so it moves the four
// partition series and leaves the optimize → optimize.plan / optimize.migrate
// trace exactly as a background migration does.
func TestManualOptimizeIsObserved(t *testing.T) {
	s, ds, _ := chainStore(t, "seen", 20, 10)
	series := func() map[string]float64 {
		out := map[string]float64{}
		for _, sm := range s.Metrics().Samples() {
			out[sm.Name] = sm.Value
		}
		return out
	}
	names := []string{
		"orpheus_partition_migrations_total",
		"orpheus_partition_batches_total",
		"orpheus_partition_rows_moved_total",
		"orpheus_partition_migrate_seconds_count",
	}
	before := series()
	rep, err := ds.Optimize(2)
	if err != nil {
		t.Fatal(err)
	}
	after := series()
	for _, n := range names {
		if after[n] <= before[n] {
			t.Errorf("%s did not move: %v -> %v", n, before[n], after[n])
		}
	}
	if got := after["orpheus_partition_batches_total"] - before["orpheus_partition_batches_total"]; got != float64(rep.Batches) {
		t.Errorf("batches series moved by %v, report says %d", got, rep.Batches)
	}

	recent := s.Tracer().Snapshot().Recent
	if len(recent) == 0 || recent[0].Name != "optimize" {
		t.Fatalf("newest trace is not the optimize: %+v", recent)
	}
	spans := map[string]int{}
	for _, c := range recent[0].Root.Children {
		spans[c.Name]++
	}
	if spans["optimize.plan"] != 1 || spans["optimize.migrate"] != rep.Batches {
		t.Fatalf("optimize trace has spans %v, want 1 plan and %d migrate", spans, rep.Batches)
	}
}

// TestCommitAndMergeInstallSpans: a traced commit and merge show the plan
// phases and the WAL append beside one install span, which holds the model
// and metadata writes — the exclusive section's length is that span.
func TestCommitAndMergeInstallSpans(t *testing.T) {
	s := NewStore()
	if err := s.EnableWAL(WALConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	ds, err := s.Init("spans", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, ds, nil, "base", 1, 2)
	v2 := mustCommit(t, ds, []VersionID{v1}, "ours", 1, 2, 3)
	traced := func(name string, op func(context.Context) error) obs.SpanData {
		t.Helper()
		ctx, root := s.Tracer().StartTrace(context.Background(), name)
		if err := op(ctx); err != nil {
			t.Fatal(err)
		}
		root.End()
		recent := s.Tracer().Snapshot().Recent
		if len(recent) == 0 || recent[0].Name != name {
			t.Fatalf("newest trace is not %s: %+v", name, recent)
		}
		return recent[0].Root
	}
	check := func(root obs.SpanData, top []string, install string, inside []string) {
		t.Helper()
		names := map[string]*obs.SpanData{}
		for i := range root.Children {
			names[root.Children[i].Name] = &root.Children[i]
		}
		for _, n := range append(top, install) {
			if names[n] == nil {
				t.Fatalf("%s trace has no %s span under the root: %+v", root.Name, n, root)
			}
		}
		for _, n := range inside {
			found := false
			for _, c := range names[install].Children {
				found = found || c.Name == n
			}
			if !found || names[n] != nil {
				t.Fatalf("%s should hold %s (and only it): %+v", install, n, root)
			}
		}
	}
	commit := traced("commit", func(ctx context.Context) error {
		_, err := ds.CommitCtx(ctx, []Row{{Int(1), String("r1")}, {Int(4), String("r4")}}, []VersionID{v1}, "theirs")
		return err
	})
	check(commit, []string{"commit.match", "wal.append"}, "commit.install", []string{"commit.model", "commit.meta"})
	merge := traced("merge", func(ctx context.Context) error {
		_, err := ds.MergeCtx(ctx, fmt.Sprint(v2), fmt.Sprint(v2+1), MergeOurs, "")
		return err
	})
	check(merge, []string{"merge.lca", "merge.formula", "merge.fetch", "wal.append"}, "merge.install", []string{"merge.commit"})
}
