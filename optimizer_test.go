package orpheusdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"orpheusdb/internal/core"
	"orpheusdb/internal/partition"
)

// chainStore builds a dataset, named without a model, whose versions form a
// growing chain: version i carries i*rowsPer accumulated rows, so the single
// initial partition's checkout cost drifts far above what LYRESPLIT can
// achieve.
func chainStore(t *testing.T, name string, versions, rowsPer int) (*Store, *Dataset, []VersionID) {
	t.Helper()
	store := NewStore()
	cols := []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}}
	ds, err := store.Init(name, cols, InitOptions{PrimaryKey: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	var parents []VersionID
	var vids []VersionID
	next := int64(0)
	for i := 0; i < versions; i++ {
		for j := 0; j < rowsPer; j++ {
			rows = append(rows, Row{Int(next), Int(next * 3)})
			next++
		}
		v, err := ds.Commit(append([]Row(nil), rows...), parents, fmt.Sprintf("step %d", i))
		if err != nil {
			t.Fatal(err)
		}
		parents = []VersionID{v}
		vids = append(vids, v)
	}
	return store, ds, vids
}

// sortedCheckout fingerprints one version's rows independent of fetch order.
func sortedCheckout(t *testing.T, ds *Dataset, v VersionID) []string {
	t.Helper()
	rows, err := ds.Checkout(v)
	if err != nil {
		t.Fatalf("checkout %d: %v", v, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func TestStartPartitionOptimizerValidatesConfig(t *testing.T) {
	store := NewStore()
	if _, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{RecomputeEvery: -1}); err == nil {
		t.Fatal("negative RecomputeEvery accepted")
	} else {
		var oe *partition.OptionsError
		if !errors.As(err, &oe) || oe.Field != "RecomputeEvery" {
			t.Fatalf("want OptionsError on RecomputeEvery, got %v", err)
		}
	}
	if _, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{GammaFactor: 0.5}); err == nil {
		t.Fatal("sub-1 gamma accepted")
	}
	o, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{}); err == nil {
		t.Fatal("second optimizer accepted while first is running")
	}
	o.Stop()
	if store.PartitionOptimizer() != nil {
		t.Fatal("Stop left the optimizer registered")
	}
	// Restartable after Stop.
	o2, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{Mu: MuDisabled})
	if err != nil {
		t.Fatal(err)
	}
	if got := o2.Config().Mu; got != 0 {
		t.Fatalf("MuDisabled should map to Mu=0, got %g", got)
	}
	o2.Stop()
}

// TestOptimizerDriftMigratesUnderTraffic drives commits through a store with
// the optimizer running and waits for the µ-drift trigger to repartition the
// dataset in the background; every version must checkout identically before
// and after, and the layout must end up multi-partition.
func TestOptimizerDriftMigratesUnderTraffic(t *testing.T) {
	store, ds, vids := chainStore(t, "drift", 40, 25)
	before := make(map[VersionID][]string, len(vids))
	for _, v := range vids {
		before[v] = sortedCheckout(t, ds, v)
	}
	st0, _ := ds.PartitionStatus()
	if len(st0.Partitions) != 1 {
		t.Fatalf("fixture should start single-partition, got %d", len(st0.Partitions))
	}

	o, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{
		Mu:             1, // migrate as soon as the layout is beatable at all
		RecomputeEvery: 1,
		BatchRows:      200,
		Interval:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	// One more commit wakes the optimizer; the sweep observes the whole
	// history and the drift check fires.
	if _, err := ds.Commit([]Row{{Int(99999), Int(0)}}, []VersionID{vids[len(vids)-1]}, "wake"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := o.Status("drift"); s.Migrations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("optimizer never migrated: %+v", o.Status("drift"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	st1, _ := ds.PartitionStatus()
	if len(st1.Partitions) < 2 {
		t.Fatalf("migration left %d partitions", len(st1.Partitions))
	}
	if st1.CheckoutCost >= st0.CheckoutCost {
		t.Fatalf("checkout cost did not improve: %g -> %g", st0.CheckoutCost, st1.CheckoutCost)
	}
	for _, v := range vids {
		after := sortedCheckout(t, ds, v)
		if len(after) != len(before[v]) {
			t.Fatalf("version %d: %d rows after migration, want %d", v, len(after), len(before[v]))
		}
		for i := range after {
			if after[i] != before[v][i] {
				t.Fatalf("version %d row %d diverged after migration", v, i)
			}
		}
	}
	status := o.Status("drift")
	if status.Batches == 0 || status.RowsMoved == 0 || status.LastReason != "drift" {
		t.Fatalf("optimizer status incomplete: %+v", status)
	}
	if n := store.DB().Stats().PartitionMigrations.Load(); n == 0 {
		t.Fatal("engine migration counter not bumped")
	}
}

// TestOptimizerManualTrigger repartitions on demand without any drift.
func TestOptimizerManualTrigger(t *testing.T) {
	store, ds, vids := chainStore(t, "manual", 20, 10)
	o, err := store.StartPartitionOptimizer(PartitionOptimizerConfig{
		Mu:       MuDisabled, // observe-only: only the manual path migrates
		Interval: time.Hour,  // no background sweeps interfere
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	rep, err := o.Trigger("manual")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 || rep.Partitions < 2 || rep.Reason != "manual" {
		t.Fatalf("report incomplete: %+v", rep)
	}
	for _, v := range vids {
		if _, err := ds.Checkout(v); err != nil {
			t.Fatalf("checkout %d after manual migration: %v", v, err)
		}
	}
	if _, err := o.Trigger("no-such-dataset"); err == nil {
		t.Fatal("trigger on unknown dataset accepted")
	}
}

// TestManualOptimizeYieldsBetweenBatches: a manual Optimize holds the dataset
// lock one batch at a time, so a reader that keeps checking out the dataset
// gets through while the migration is still in flight. (The one-shot executor
// this replaced held the lock for the whole migration: the reader got in once
// at most.)
func TestManualOptimizeYieldsBetweenBatches(t *testing.T) {
	_, ds, vids := chainStore(t, "yield", 40, 500)
	var inFlight, done atomic.Bool
	var reads atomic.Int64
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for !done.Load() {
			counts := inFlight.Load()
			if _, err := ds.Checkout(vids[0]); err != nil {
				readerErr <- err
				return
			}
			if counts && !done.Load() {
				reads.Add(1) // started and finished inside the migration
			}
		}
	}()
	inFlight.Store(true)
	rep, err := ds.Optimize(2)
	done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if rep.Batches < 4 {
		t.Fatalf("migration ran in %d batches; the test needs several critical sections", rep.Batches)
	}
	if n := reads.Load(); n < 2 {
		t.Fatalf("%d checkouts completed during a %d-batch optimize; the lock was not released between batches", n, rep.Batches)
	}
}

// TestRepartitionSavesAppliedBatches: on a path-backed store without a WAL
// the debounced save is the only durability, so every applied batch must
// schedule one — a plan cut short by a failing batch (or by Stop) still gets
// its applied prefix to disk.
func TestRepartitionSavesAppliedBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.odb")
	s, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer crash(s)
	s.SetSaveDelay(20 * time.Millisecond)
	ds, err := s.Init("pre", protCols(), InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	vids := growChain(t, ds, 12, 5)
	want := make(map[VersionID][]string, len(vids))
	for _, v := range vids {
		want[v] = sortedCheckout(t, ds, v)
	}
	if err := s.Flush(); err != nil { // the commits are saved; no save is pending
		t.Fatal(err)
	}
	saves := s.WALStatus().Checkpoints

	_, err = ds.repartition("test", nil, func(c *core.CVD) (*core.RepartitionPlan, error) {
		plan, err := c.PlanRepartition(2, defaultBatchRows)
		if err == nil {
			// The final batch cannot apply; the ones before it are real.
			plan.Batches[len(plan.Batches)-1] = core.PartitionBatch{Kind: core.PartitionBatchGC, Anchor: 9999}
		}
		return plan, err
	})
	if err == nil {
		t.Fatal("a plan with an unappliable batch succeeded")
	}
	if st, _ := ds.PartitionStatus(); len(st.Partitions) < 2 {
		t.Fatalf("no batch was applied before the failing one (%d partitions)", len(st.Partitions))
	}
	for deadline := time.Now().Add(10 * time.Second); s.WALStatus().Checkpoints == saves; {
		if time.Now().After(deadline) {
			t.Fatal("the applied batches never scheduled a save")
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.Dataset("pre")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := rd.PartitionStatus(); len(st.Partitions) < 2 {
		t.Fatalf("reopened store has %d partitions: the applied batches were not saved", len(st.Partitions))
	}
	for _, v := range vids {
		if got := sortedCheckout(t, rd, v); fmt.Sprint(got) != fmt.Sprint(want[v]) {
			t.Fatalf("version %d differs after reopen", v)
		}
	}
}
