package repl

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	orpheusdb "orpheusdb"
)

// Replication consistency hammer: concurrent commits, branch/merge cycles,
// partition migrations, and checkpoints on the primary, against concurrent
// fingerprinted checkouts and ETag-validated HTTP reads on the follower.
//
// The headline invariant is the acked-watermark rule — a follower never
// serves state newer than the LSN it has applied. It is checked with stable
// samples: read (appliedLSN, latestVersion, appliedLSN) and keep the sample
// only when the two LSN reads agree; across consecutive stable samples the
// LSN must be non-decreasing, and an unchanged LSN must pin an unchanged
// latest version (visible state cannot move without acking a record).
// Run with -race; the final barrier asserts full fingerprint convergence.

const (
	hammerCommits = 40 // per plain writer
	hammerMerges  = 12 // branch/merge cycles
)

// stableSample reads (appliedLSN, latest version of dataset name) on the
// follower, retrying until the LSN is unchanged across the read. ok=false
// when the dataset is not visible yet or the store never held still.
func stableSample(f *Follower, name string) (lsn uint64, latest orpheusdb.VersionID, ok bool) {
	for try := 0; try < 20; try++ {
		st := f.Store()
		a1 := st.WALStatus().AppliedLSN
		d, err := st.Dataset(name)
		if err != nil {
			return 0, 0, false // not replicated yet
		}
		v := d.LatestVersion()
		if st.WALStatus().AppliedLSN == a1 {
			return a1, v, true
		}
	}
	return 0, 0, false
}

func TestReplicationConsistencyHammer(t *testing.T) {
	primary, srv := newPrimary(t)
	da, err := primary.Init("ha", testColumns(), orpheusdb.InitOptions{
		PrimaryKey: []string{"id"},
		Model:      orpheusdb.PartitionedRlist,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := primary.Init("hb", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, da, 1, "seed")
	commitN(t, db, 1, "seed")

	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	ours, err := orpheusdb.ParseMergePolicy("ours")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	writersDone := make(chan struct{})

	// Writer 1: plain commit chain on "ha", with a partition migration
	// every 10 commits (replicated batch by batch as optimize-migrate
	// records).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < hammerCommits; i++ {
			v, err := da.Commit(
				[]orpheusdb.Row{{orpheusdb.Int(int64(10000 + i)), orpheusdb.String(fmt.Sprintf("a-%d", i))}},
				[]orpheusdb.VersionID{da.LatestVersion()}, fmt.Sprintf("a %d", i))
			if err != nil {
				errs <- fmt.Errorf("writer a commit %d: %w", i, err)
				return
			}
			if i%10 == 9 {
				if _, err := da.Optimize(2.0); err != nil {
					errs <- fmt.Errorf("optimize after v%d: %w", v, err)
					return
				}
			}
		}
	}()

	// Writer 2: branch/merge cycles on "hb" — commit on main, branch, commit
	// on the branch, merge it back with the "ours" policy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < hammerMerges; i++ {
			base := db.LatestVersion()
			branch := fmt.Sprintf("side-%d", i)
			if _, err := db.CreateBranch(branch, base); err != nil {
				errs <- fmt.Errorf("branch %s: %w", branch, err)
				return
			}
			sideV, err := db.Commit(
				[]orpheusdb.Row{{orpheusdb.Int(int64(20001 + 2*i)), orpheusdb.String(fmt.Sprintf("side-%d", i))}},
				[]orpheusdb.VersionID{base}, fmt.Sprintf("side %d", i))
			if err != nil {
				errs <- fmt.Errorf("writer b side commit %d: %w", i, err)
				return
			}
			// Diverge the main line off the same base so the merge is a true
			// three-way merge (a fast-forward would create no version).
			mainV, err := db.Commit(
				[]orpheusdb.Row{{orpheusdb.Int(int64(20000 + 2*i)), orpheusdb.String(fmt.Sprintf("main-%d", i))}},
				[]orpheusdb.VersionID{base}, fmt.Sprintf("main %d", i))
			if err != nil {
				errs <- fmt.Errorf("writer b main commit %d: %w", i, err)
				return
			}
			if _, err := db.Merge(fmt.Sprint(mainV), fmt.Sprint(sideV), ours, fmt.Sprintf("merge %d", i)); err != nil {
				errs <- fmt.Errorf("merge %d: %w", i, err)
				return
			}
		}
	}()

	// Checkpointer: checkpoint/truncate racing the shipping stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := primary.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Follower readers: one per dataset enforcing the acked-watermark rule
	// and spot-checking fingerprints of already-replicated versions.
	for _, name := range []string{"ha", "hb"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevLSN uint64
			var prevLatest orpheusdb.VersionID
			havePrev := false
			for i := 0; ; i++ {
				select {
				case <-writersDone:
					return
				default:
				}
				lsn, latest, ok := stableSample(f, name)
				if !ok {
					continue
				}
				if havePrev {
					if lsn < prevLSN {
						errs <- fmt.Errorf("%s: applied LSN went backwards: %d -> %d", name, prevLSN, lsn)
						return
					}
					if lsn == prevLSN && latest != prevLatest {
						errs <- fmt.Errorf("%s: state served beyond acked watermark: latest %d -> %d at LSN %d",
							name, prevLatest, latest, lsn)
						return
					}
					if lsn > prevLSN && latest < prevLatest {
						errs <- fmt.Errorf("%s: latest version went backwards: %d -> %d", name, prevLatest, latest)
						return
					}
				}
				prevLSN, prevLatest, havePrev = lsn, latest, true

				// Spot-check: any version the follower exposes must
				// fingerprint identically on the primary (versions are
				// immutable once committed).
				fst := f.Store()
				fd, err := fst.Dataset(name)
				if err != nil {
					continue
				}
				vs := fd.Versions()
				if len(vs) == 0 {
					continue
				}
				v := vs[i%len(vs)]
				frows, err := fd.Checkout(v)
				if err != nil {
					errs <- fmt.Errorf("%s: follower checkout v%d: %w", name, v, err)
					return
				}
				pd, err := primary.Dataset(name)
				if err != nil {
					errs <- err
					return
				}
				prows, err := pd.Checkout(v)
				if err != nil {
					errs <- fmt.Errorf("%s: primary checkout v%d: %w", name, v, err)
					return
				}
				if len(frows) != len(prows) {
					errs <- fmt.Errorf("%s v%d: follower has %d rows, primary %d", name, v, len(frows), len(prows))
					return
				}
			}
		}()
	}

	// HTTP reader: checkout with ETag validators against the follower's
	// server — every response is either a well-formed 200 with a validator
	// or a 304 for a still-valid one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		token := ""
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			req, _ := http.NewRequest(http.MethodGet, fsrv.URL+"/api/v1/datasets/ha/checkout?versions=1", nil)
			if token != "" {
				req.Header.Set("If-None-Match", token)
			}
			resp, err := client.Do(req)
			if err != nil {
				errs <- fmt.Errorf("etag reader: %w", err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				if resp.Header.Get("X-Orpheus-Version") == "" {
					resp.Body.Close()
					errs <- fmt.Errorf("etag reader: 200 without a validator")
					return
				}
				token = resp.Header.Get("X-Orpheus-Version")
			case http.StatusNotModified:
				// Still valid: fine.
			default:
				resp.Body.Close()
				errs <- fmt.Errorf("etag reader: unexpected status %d", resp.StatusCode)
				return
			}
			resp.Body.Close()
		}
	}()

	// Wait until every expected version landed on the primary, then stop
	// the readers and join everyone.
	expectA := 1 + hammerCommits  // seed + commits
	expectB := 1 + 3*hammerMerges // seed + (main, side, merge) per cycle
	waitFor(t, 30*time.Second, "writers to finish", func() bool {
		select {
		case err := <-errs:
			t.Fatalf("hammer worker failed: %v", err)
		default:
		}
		return len(da.Versions()) >= expectA && len(db.Versions()) >= expectB
	})
	close(writersDone)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("hammer worker failed: %v", err)
	default:
	}

	waitCaughtUp(t, f, primary)
	assertConverged(t, primary, f.Store())

	if f.Store().WALStatus().AppliedLSN != primary.WALStatus().AppliedLSN {
		t.Fatal("watermarks diverged after hammer")
	}
}
