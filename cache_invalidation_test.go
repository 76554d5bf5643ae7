package orpheusdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"orpheusdb/internal/wal"
)

// The cache invalidation tests prove the tentpole invariant of the checkout
// cache: a reader can never observe a stale materialization, because every
// mutator drops the entries it can change inside its critical section
// (while holding the dataset write lock), and readers populate entries only
// while holding the read lock. Run under -race.

// commitMarkerVersion commits a version whose contents are fully determined
// by its version number: row i of version k carries val "k" in every row,
// and the version has k rows. Any checkout observing a mix is a torn or
// stale read.
func commitMarkerVersion(t testing.TB, ds *Dataset, k int) VersionID {
	t.Helper()
	rows := make([]Row, k)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), String(fmt.Sprintf("k%d", k))}
	}
	var parents []VersionID
	if prev := ds.LatestVersion(); prev != 0 {
		parents = []VersionID{prev}
	}
	v, err := ds.Commit(rows, parents, fmt.Sprintf("marker %d", k))
	if err != nil {
		t.Fatalf("commit marker %d: %v", k, err)
	}
	return v
}

// verifyMarker asserts rows are exactly version k's deterministic contents.
func verifyMarker(rows []Row, k int) error {
	if len(rows) != k {
		return fmt.Errorf("version %d: got %d rows, want %d", k, len(rows), k)
	}
	want := fmt.Sprintf("k%d", k)
	for _, r := range rows {
		if r[1].S != want {
			return fmt.Errorf("version %d: row carries %q, want %q", k, r[1].S, want)
		}
	}
	return nil
}

// TestCachedCheckoutNeverStale hammers cached checkouts of a dataset while a
// writer streams commits into it, asserting every observed record set is
// exactly the committed content of the requested version — across the Go
// API, multi-version scans, and SQL — and that reads of the just-published
// latest version are never served from a pre-commit entry.
func TestCachedCheckoutNeverStale(t *testing.T) {
	store := NewStore()
	cols := []Column{
		{Name: "id", Type: KindInt},
		{Name: "val", Type: KindString},
	}
	ds, err := store.Init("hammer", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}

	const commits = 60
	var published atomic.Int64 // highest marker k whose commit returned
	published.Store(int64(1))
	commitMarkerVersion(t, ds, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writer: stream commits; version id == marker k by construction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 2; k <= commits; k++ {
			commitMarkerVersion(t, ds, k)
			published.Store(int64(k))
		}
	}()

	// Hot readers: re-checkout the same published version repeatedly (cache
	// hits) and verify contents. Each observed version must be internally
	// consistent with its marker.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int(published.Load())
				rows, err := ds.Checkout(VersionID(k))
				if err != nil {
					report(fmt.Errorf("checkout %d: %w", k, err))
					return
				}
				if err := verifyMarker(rows, k); err != nil {
					report(fmt.Errorf("stale checkout: %w", err))
					return
				}
			}
		}()
	}

	// Scan readers: multi-version EXCEPT between latest and its parent must
	// reflect exactly the rows added by the newer marker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int(published.Load())
			if k < 2 {
				continue
			}
			rows, err := ds.MultiVersionCheckout(context.Background(),
				[]VersionID{VersionID(k), VersionID(k - 1)}, []SetOp{SetExcept})
			if err != nil {
				report(fmt.Errorf("scan %d EXCEPT %d: %w", k, k-1, err))
				return
			}
			// Version k rewrites every row's val, so k EXCEPT k-1 is all k
			// rows of version k.
			if err := verifyMarker(rows, k); err != nil {
				report(fmt.Errorf("stale scan: %w", err))
				return
			}
		}
	}()

	// SQL readers: the translator's cached materialization path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int(published.Load())
			res, err := store.Run(fmt.Sprintf(
				"SELECT count(*) AS c, min(val) AS lo, max(val) AS hi FROM VERSION %d OF CVD hammer", k))
			if err != nil {
				report(fmt.Errorf("sql checkout %d: %w", k, err))
				return
			}
			row := res.Rows[0]
			want := fmt.Sprintf("k%d", k)
			if row[0].I != int64(k) || row[1].S != want || row[2].S != want {
				report(fmt.Errorf("stale sql read of version %d: count=%d lo=%q hi=%q",
					k, row[0].I, row[1].S, row[2].S))
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every version must still verify after the storm (cache warm or cold).
	for k := 1; k <= commits; k++ {
		rows, err := ds.Checkout(VersionID(k))
		if err != nil {
			t.Fatalf("final checkout %d: %v", k, err)
		}
		if err := verifyMarker(rows, k); err != nil {
			t.Fatalf("final verify: %v", err)
		}
	}
	if st := store.CacheStats(); st.Hits == 0 {
		t.Fatalf("test never exercised the cache: %+v", st)
	}
}

// TestCacheInvalidationAcrossDatasets checks a commit on one dataset leaves
// the other dataset's cached materializations resident (no false
// invalidation) and, on its own dataset, drops the all-versions view but
// keeps the entries of the versions it did not change.
func TestCacheInvalidationAcrossDatasets(t *testing.T) {
	store := NewStore()
	cols := []Column{{Name: "id", Type: KindInt}, {Name: "val", Type: KindString}}
	a, err := store.Init("dsa", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Init("dsb", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitMarkerVersion(t, a, 3)
	commitMarkerVersion(t, b, 4)
	if _, err := a.Checkout(1); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Run("SELECT count(*) FROM CVD dsa"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Checkout(1); err != nil {
		t.Fatal(err)
	}
	if n := store.DatasetCacheStats("dsa").Entries; n != 2 {
		t.Fatalf("dsa entries = %d, want 2 (v1 and the all-versions view)", n)
	}
	if n := store.DatasetCacheStats("dsb").Entries; n != 1 {
		t.Fatalf("dsb entries = %d, want 1", n)
	}
	genB := b.CacheGeneration()
	commitMarkerVersion(t, a, 5)
	if n := store.DatasetCacheStats("dsa").Entries; n != 1 {
		t.Fatalf("dsa entries after commit = %d, want 1 (v1 only)", n)
	}
	// The survivor is v1's entry: checking it out again is a hit.
	hits := store.CacheStats().Hits
	rows, err := a.Checkout(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMarker(rows, 3); err != nil {
		t.Fatal(err)
	}
	if store.CacheStats().Hits != hits+1 {
		t.Fatal("dsa v1 was not served from cache after a commit on dsa")
	}
	// The all-versions view was dropped and now includes the new version.
	res, err := store.Run("SELECT count(*) FROM CVD dsa")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != 3+5 {
		t.Fatalf("all-versions rows after commit = %d, want %d", got, 3+5)
	}
	if n := store.DatasetCacheStats("dsb").Entries; n != 1 {
		t.Fatalf("dsb entries after commit on dsa = %d, want 1", n)
	}
	if b.CacheGeneration() != genB {
		t.Fatal("commit on dsa advanced dsb's generation")
	}
}

// TestDropInvalidatesCache checks a dropped-and-recreated dataset of the same
// name cannot serve the old incarnation's entries.
func TestDropInvalidatesCache(t *testing.T) {
	store := NewStore()
	cols := []Column{{Name: "id", Type: KindInt}, {Name: "val", Type: KindString}}
	ds, err := store.Init("phoenix", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitMarkerVersion(t, ds, 3)
	if _, err := ds.Checkout(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Drop("phoenix"); err != nil {
		t.Fatal(err)
	}
	ds2, err := store.Init("phoenix", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitMarkerVersion(t, ds2, 5)
	rows, err := ds2.Checkout(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMarker(rows, 5); err != nil {
		t.Fatalf("recreated dataset served old entry: %v", err)
	}
}

// TestRawSQLWritesFlushCache checks the conservative rule for raw DML: any
// write statement flushes the whole cache inside its exclusive window, so a
// statement rewriting a dataset's backing tables cannot leave a stale entry
// resident.
func TestRawSQLWritesFlushCache(t *testing.T) {
	store := NewStore()
	cols := []Column{{Name: "id", Type: KindInt}, {Name: "val", Type: KindString}}
	ds, err := store.Init("raw", cols, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitMarkerVersion(t, ds, 2)
	if _, err := ds.Checkout(1); err != nil {
		t.Fatal(err)
	}
	if st := store.CacheStats(); st.Entries == 0 {
		t.Fatal("no entry cached before DML")
	}
	if _, err := store.Run("CREATE TABLE scratch (x integer)"); err != nil {
		t.Fatal(err)
	}
	if st := store.CacheStats(); st.Entries != 0 {
		t.Fatalf("DML left %d cache entries resident", st.Entries)
	}
}

// TestOptimizeKeepsVersionTokens: repartitioning changes where rows live, not
// what any version contains, so a token handed out before a manual Optimize
// still validates after it — on the primary, and on a follower that applied
// the shipped optimize-migrate records — and the rows behind it are the same.
func TestOptimizeKeepsVersionTokens(t *testing.T) {
	primary := NewStore()
	if err := primary.EnableWAL(WALConfig{Dir: t.TempDir(), Policy: FsyncOff}); err != nil {
		t.Fatal(err)
	}
	defer crash(primary)
	ds, err := primary.Init("tok", protCols(), InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	vids := growChain(t, ds, 12, 6)
	follower, err := NewStoreFromSnapshot(primary.ReplicationSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	fds, err := follower.Dataset("tok")
	if err != nil {
		t.Fatal(err)
	}

	type held struct {
		gen  uint64
		rows string
	}
	take := func(d *Dataset) map[VersionID]held {
		out := make(map[VersionID]held, len(vids))
		for _, v := range vids {
			_, rows, gen, err := d.CheckoutWithTokenCtx(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			out[v] = held{gen, fmt.Sprint(rows)}
		}
		return out
	}
	check := func(side string, d *Dataset, before map[VersionID]held) {
		for v, h := range take(d) {
			if h.gen != before[v].gen {
				t.Errorf("%s: version %d token died across optimize (generation %d -> %d)", side, v, before[v].gen, h.gen)
			}
			if h.rows != before[v].rows {
				t.Errorf("%s: version %d rows changed across optimize", side, v)
			}
		}
	}
	heldPrimary, heldFollower := take(ds), take(fds)

	from := primary.WALStatus().AppliedLSN
	rep, err := ds.Optimize(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions < 2 {
		t.Fatalf("optimize left %d partitions; the test needs versions to move", rep.Partitions)
	}
	check("primary", ds, heldPrimary)

	it, err := primary.OpenWALStream(from)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	shipped := 0
	for {
		lsn, rec, _, err := it.Next()
		if errors.Is(err, wal.ErrNoRecord) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyReplicated(lsn, rec); err != nil {
			t.Fatal(err)
		}
		shipped++
	}
	if shipped != rep.Batches {
		t.Fatalf("shipped %d records for a %d-batch optimize", shipped, rep.Batches)
	}
	check("follower", fds, heldFollower)
}
