package orpheusdb

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The concurrency smoke tests prove the locking layer added for the HTTP
// service at the library level: commits, checkouts, diffs, and SQL running
// in parallel across datasets on one Store, under -race.

func seedConcurrencyStore(t *testing.T, s *Store, datasets int) {
	t.Helper()
	cols := []Column{
		{Name: "id", Type: KindInt},
		{Name: "val", Type: KindString},
	}
	for i := 0; i < datasets; i++ {
		d, err := s.Init(fmt.Sprintf("c%d", i), cols, InitOptions{PrimaryKey: []string{"id"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Commit([]Row{{Int(0), String("base")}}, nil, "base"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentStoreMixedWorkload(t *testing.T) {
	const (
		workers  = 24
		datasets = 4
		opsEach  = 20
	)
	s := NewStore()
	seedConcurrencyStore(t, s, datasets)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", w%datasets)
			d, err := s.Dataset(name)
			if err != nil {
				errs <- err
				return
			}
			for op := 0; op < opsEach; op++ {
				switch op % 5 {
				case 0:
					row := Row{Int(int64(w*1000 + op)), String("x")}
					if _, err := d.Commit([]Row{row}, []VersionID{1}, "w"); err != nil {
						errs <- fmt.Errorf("worker %d commit: %w", w, err)
						return
					}
				case 1:
					if _, err := d.Checkout(1); err != nil {
						errs <- fmt.Errorf("worker %d checkout: %w", w, err)
						return
					}
				case 2:
					if _, _, err := d.Diff(1, 1); err != nil {
						errs <- fmt.Errorf("worker %d diff: %w", w, err)
						return
					}
				case 3:
					q := fmt.Sprintf("SELECT count(*) FROM VERSION 1 OF CVD %s", name)
					if _, err := s.Run(q); err != nil {
						errs <- fmt.Errorf("worker %d query: %w", w, err)
						return
					}
				case 4:
					if _, err := d.Info(d.LatestVersion()); err != nil {
						errs <- fmt.Errorf("worker %d info: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Version ids stay dense per dataset: every successful commit got a
	// distinct id and none were lost.
	for i := 0; i < datasets; i++ {
		d, err := s.Dataset(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if lat, n := d.LatestVersion(), len(d.Versions()); int(lat) != n {
			t.Errorf("c%d: latest version %d != count %d", i, lat, n)
		}
	}
}

// TestConcurrentCheckoutsAfterCommit targets the engine's lazy index
// settling: a commit leaves an unsorted index tail, and the first lookups
// afterwards come from many concurrent readers at once.
func TestConcurrentCheckoutsAfterCommit(t *testing.T) {
	s := NewStore()
	seedConcurrencyStore(t, s, 1)
	d, err := s.Dataset("c0")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		rows := make([]Row, 50)
		for i := range rows {
			rows[i] = Row{Int(int64(round*1000 + i + 1)), String("r")}
		}
		if _, err := d.Commit(rows, []VersionID{1}, "round"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := d.Checkout(d.LatestVersion()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestConcurrentSQLWrites proves raw-table DML through Run is serialized:
// INSERTs land under the exclusive save lock while versioned SELECTs share.
func TestConcurrentSQLWrites(t *testing.T) {
	s := NewStore()
	seedConcurrencyStore(t, s, 1)
	if _, err := s.Run("CREATE TABLE scratch (k integer, v string)"); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := fmt.Sprintf("INSERT INTO scratch VALUES (%d, 'x')", w*100+i)
				if _, err := s.Run(q); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if _, err := s.Run("SELECT count(*) FROM VERSION 1 OF CVD c0"); err != nil {
					t.Errorf("writer %d select: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := s.Run("SELECT count(*) FROM scratch")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != writers*10 {
		t.Errorf("scratch has %d rows, want %d (lost inserts)", got, writers*10)
	}
}

// TestConcurrentRawTableSQL races raw SQL that names a dataset's backing
// table directly against commits and checkouts on that dataset: such
// statements must take the dataset locks, not just the save lock.
func TestConcurrentRawTableSQL(t *testing.T) {
	s := NewStore()
	seedConcurrencyStore(t, s, 1)
	d, err := s.Dataset("c0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch w % 3 {
				case 0:
					row := Row{Int(int64(w*1000 + i + 10)), String("z")}
					if _, err := d.Commit([]Row{row}, []VersionID{1}, "raw"); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				case 1:
					// c0_part0_data is partition 0's data table.
					if _, err := s.Run("SELECT count(*) FROM c0_part0_data"); err != nil {
						t.Errorf("raw select: %v", err)
						return
					}
				case 2:
					if _, err := d.Checkout(1); err != nil {
						t.Errorf("checkout: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentSystemTableAccess races catalog/user-table readers (List,
// Users, Dataset) against SQL DML that names those system tables directly.
func TestConcurrentSystemTableAccess(t *testing.T) {
	s := NewStore()
	seedConcurrencyStore(t, s, 1)
	if err := s.AddUser("u0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch w % 2 {
				case 0:
					q := fmt.Sprintf("INSERT INTO __orpheus_users VALUES ('w%d-%d', %d)", w, i, i)
					if _, err := s.Run(q); err != nil {
						t.Errorf("insert users: %v", err)
						return
					}
				case 1:
					s.Users()
					s.List()
					if _, err := s.Dataset("c0"); err != nil {
						t.Errorf("dataset: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentCommitsWithAsyncSave races the debounced saver against
// in-flight commits: the exclusive save lock must produce consistent
// snapshots without data races.
func TestConcurrentCommitsWithAsyncSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async.odb")
	s, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSaveDelay(time.Millisecond)
	seedConcurrencyStore(t, s, 2)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, err := s.Dataset(fmt.Sprintf("c%d", w%2))
			if err != nil {
				t.Error(err)
				return
			}
			for op := 0; op < 10; op++ {
				if _, err := d.Commit([]Row{{Int(int64(w*100 + op)), String("y")}}, []VersionID{1}, "w"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveErr(); err != nil {
		t.Fatalf("async save failed: %v", err)
	}

	// The snapshot on disk holds every committed version.
	re, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 2; i++ {
		d, err := re.Dataset(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		total += len(d.Versions()) - 1
	}
	if total != 80 {
		t.Errorf("reloaded store has %d committed versions, want 80", total)
	}
}

// TestSharedDatasetHandles verifies the registry returns one handle per CVD,
// so every caller shares the same lock.
func TestSharedDatasetHandles(t *testing.T) {
	s := NewStore()
	seedConcurrencyStore(t, s, 1)
	a, err := s.Dataset("c0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Dataset("c0")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Dataset returned distinct handles for the same CVD")
	}
	if err := s.Drop("c0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dataset("c0"); err == nil {
		t.Error("Dataset succeeded after Drop")
	}
	// The stale handle is invalidated: even after a same-name re-Init,
	// operations through it fail instead of writing into the new dataset.
	if _, err := s.Init("c0", []Column{{Name: "id", Type: KindInt}}, InitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit([]Row{{Int(1)}}, nil, "stale"); err == nil {
		t.Error("stale handle Commit succeeded after Drop+Init")
	}
	if _, err := a.Checkout(1); err == nil {
		t.Error("stale handle Checkout succeeded after Drop+Init")
	}
	_ = b
}

// checkoutFingerprint reduces a version's contents to an order-independent
// string, safe to call from worker goroutines (no testing.T).
func checkoutFingerprint(d *Dataset, v VersionID) (string, error) {
	rows, err := d.Checkout(v)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprint(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n"), nil
}

// TestOptimizerMigrationUnderTraffic hammers repartitioning from every
// entrance at once: drift-triggered, Trigger and direct Dataset.Optimize /
// MaintainPartitions migrations rewrite the partition layout while
// checkouts verify version contents byte-for-byte, commits extend the
// chain, merges fork and join branches, and cache flushes keep emptying
// the checkout cache. Under -race this exercises the optimizer's locking
// against the whole read/write surface at once.
func TestOptimizerMigrationUnderTraffic(t *testing.T) {
	s := NewStore()
	cols := []Column{
		{Name: "id", Type: KindInt},
		{Name: "val", Type: KindString},
	}
	d, err := s.Init("hot", cols, InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}

	// Growing chain: version i holds 4(i+1) rows, so the single seed
	// partition drifts and the optimizer keeps finding profitable splits.
	rowsFor := func(n, extra int, tag string) []Row {
		rows := make([]Row, 0, n+1)
		for i := 0; i < n; i++ {
			rows = append(rows, Row{Int(int64(i)), String("v")})
		}
		if extra >= 0 {
			rows = append(rows, Row{Int(int64(extra)), String(tag)})
		}
		return rows
	}
	const seeded = 24
	var vids []VersionID
	last := VersionID(0)
	for i := 0; i < seeded; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		v, err := d.Commit(rowsFor(4*(i+1), -1, ""), parents, fmt.Sprintf("seed %d", i))
		if err != nil {
			t.Fatal(err)
		}
		vids = append(vids, v)
		last = v
	}
	want := make(map[VersionID]string, len(vids))
	for _, v := range vids {
		fp, err := checkoutFingerprint(d, v)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = fp
	}

	o, err := s.StartPartitionOptimizer(PartitionOptimizerConfig{
		Mu:             1.05, // migrate on slight drift
		RecomputeEvery: 1,
		BatchRows:      64, // several critical sections per migration
		Interval:       2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(name string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}

	for w := 0; w < 2; w++ {
		w := w
		run(fmt.Sprintf("checker%d", w), func() error {
			for i := 0; i < 60; i++ {
				v := vids[(i*7+w)%len(vids)]
				fp, err := checkoutFingerprint(d, v)
				if err != nil {
					return err
				}
				if fp != want[v] {
					return fmt.Errorf("version %d contents changed under migration", v)
				}
			}
			return nil
		})
	}
	run("committer", func() error {
		tip := vids[len(vids)-1]
		for i := 0; i < 20; i++ {
			rows := rowsFor(4*seeded, 10000+i, "w")
			v, err := d.Commit(rows, []VersionID{tip}, fmt.Sprintf("traffic %d", i))
			if err != nil {
				return err
			}
			tip = v
		}
		return nil
	})
	run("merger", func() error {
		base := vids[len(vids)/2]
		baseRows := 4 * (len(vids)/2 + 1)
		for i := 0; i < 8; i++ {
			ours, err := d.Commit(rowsFor(baseRows, 50000+i, "a"), []VersionID{base}, "ours")
			if err != nil {
				return err
			}
			theirs, err := d.Commit(rowsFor(baseRows, 60000+i, "b"), []VersionID{base}, "theirs")
			if err != nil {
				return err
			}
			bn := fmt.Sprintf("hammer-%d", i)
			if _, err := d.CreateBranch(bn, ours); err != nil {
				return err
			}
			if _, err := d.Merge(bn, fmt.Sprint(theirs), MergeFail, "join"); err != nil {
				return err
			}
		}
		return nil
	})
	run("flusher", func() error {
		for i := 0; i < 40; i++ {
			s.FlushCache()
			if _, err := d.Checkout(vids[(i*11)%len(vids)]); err != nil {
				return err
			}
		}
		return nil
	})
	run("trigger", func() error {
		for i := 0; i < 10; i++ {
			if _, err := o.Trigger("hot"); err != nil {
				return err
			}
		}
		return nil
	})

	run("manual", func() error {
		// No optimizer involved: the same executor, serialized with the
		// others by the dataset's migrateMu, checkouts running between its
		// batches.
		for i := 0; i < 10; i++ {
			if _, err := d.Optimize(2); err != nil {
				return err
			}
			if _, err := d.MaintainPartitions(2, 1.05); err != nil {
				return err
			}
		}
		return nil
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	o.Stop()

	// Whatever layout the hammer left behind still serves every seeded
	// version byte-for-byte, and the store still accepts writes.
	for _, v := range vids {
		fp, err := checkoutFingerprint(d, v)
		if err != nil {
			t.Fatal(err)
		}
		if fp != want[v] {
			t.Errorf("version %d corrupted after hammer", v)
		}
	}
	if _, err := d.Commit(rowsFor(4, 777, "post"), []VersionID{vids[len(vids)-1]}, "post-hammer"); err != nil {
		t.Fatalf("store rejects writes after hammer: %v", err)
	}
	st, ok := d.PartitionStatus()
	if !ok || len(st.Partitions) < 2 {
		t.Fatalf("expected the optimizer to have split the layout (ok=%v, status %+v)", ok, st)
	}
}
