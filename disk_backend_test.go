package orpheusdb

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Disk-backend acceptance suite: the WAL crash-recovery matrices re-run
// against the page store, plus restart fidelity and the headline scenario —
// a dataset larger than both the page budget and the checkout cache that
// commits, checkpoints, survives a kill, and checks out correctly.

// TestWALRecoveryMatrixDiskBackend re-runs the whole crash-recovery suite
// with every store opened on the disk backend. Checkpoints flush dirty pages
// into the diskv file instead of writing a gob snapshot; recovery stitches
// the committed page state together with the WAL tail exactly as the
// snapshot path does.
func TestWALRecoveryMatrixDiskBackend(t *testing.T) {
	walTestBackend = BackendDisk
	defer func() { walTestBackend = BackendMemory }()
	t.Run("NoCheckpoint", TestWALRecoveryNoCheckpoint)
	t.Run("AfterCheckpoint", TestWALRecoveryAfterCheckpoint)
	t.Run("CheckpointTruncatesLog", TestWALCheckpointTruncatesLog)
	t.Run("CommitTableRecovery", TestWALCommitTableRecovery)
	t.Run("KillPoint", TestWALKillPoint)
	t.Run("ConcurrentCommitsWithCheckpoints", TestWALConcurrentCommitsWithCheckpoints)
	t.Run("OptimizeRecovery", TestWALOptimizeRecovery)
	t.Run("LegacyOptimizeRecords", TestWALLegacyOptimizeRecords)
	t.Run("BranchMergeRecovery", TestWALBranchMergeRecovery)
	t.Run("KillPointBranchMerge", TestWALKillPointBranchMerge)
	t.Run("KillPointOptimizeMigrate", TestWALKillPointOptimizeMigrate)
}

// TestDiskBackendRestartByteIdenticalCheckout closes a disk store cleanly and
// reopens it, asserting every version's checkout is byte-for-byte identical
// across the restart (not just row counts: the full rendered rows).
func TestDiskBackendRestartByteIdenticalCheckout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.odb")
	s, err := OpenStoreWithOptions(path, StoreOptions{Backend: BackendDisk})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	var versions []VersionID
	last := VersionID(0)
	for i := 0; i < 5; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		ids := make([]int64, 0, 40)
		for j := 0; j < 40; j++ {
			ids = append(ids, int64(i*40+j))
		}
		last = mustCommit(t, d, parents, fmt.Sprintf("c%d", i), ids...)
		versions = append(versions, last)
	}
	want := make(map[VersionID][]string, len(versions))
	for _, v := range versions {
		want[v] = sortedCheckout(t, d, v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStoreWithOptions(path, StoreOptions{Backend: BackendDisk})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.BackendKind() != BackendDisk {
		t.Fatalf("reopened as %q", r.BackendKind())
	}
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		got := sortedCheckout(t, rd, v)
		if len(got) != len(want[v]) {
			t.Fatalf("version %d: %d rows after restart, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("version %d row %d changed across restart:\n  before %s\n  after  %s",
					v, i, want[v][i], got[i])
			}
		}
	}
}

// TestDiskBackendDatasetLargerThanBudgets is the acceptance scenario from the
// issue: a dataset bigger than both the resident page budget and the checkout
// cache commits, checkpoints, survives a kill-style crash with a WAL tail,
// and checks out correctly — cold reads flowing through ranged backend page
// fetches with the cache as the only hot tier.
func TestDiskBackendDatasetLargerThanBudgets(t *testing.T) {
	dir := t.TempDir()
	const pageBudget = 64 << 10 // 64 KiB resident pages
	const cacheBudget = 32 << 10
	open := func() *Store {
		s, err := OpenStoreWithOptions(filepath.Join(dir, "store.odb"),
			StoreOptions{Backend: BackendDisk, PageBudgetBytes: pageBudget})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSaveDelay(time.Hour)
		s.SetCacheBudget(cacheBudget)
		if err := s.EnableWAL(WALConfig{Policy: FsyncOff}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	d, err := s.Init("big", []Column{
		{Name: "id", Type: KindInt},
		{Name: "payload", Type: KindString},
	}, InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	// ~100-byte payloads × 600 rows/version × 6 versions ≈ 360 KiB of data:
	// several times the page budget, an order of magnitude over the cache.
	pad := strings.Repeat("x", 100)
	var versions []VersionID
	last := VersionID(0)
	for v := 0; v < 6; v++ {
		rows := make([]Row, 600)
		for i := range rows {
			rows[i] = Row{Int(int64(v*600 + i)), String(fmt.Sprintf("%s-%d", pad, v*600+i))}
		}
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		nv, err := d.Commit(rows, parents, fmt.Sprintf("bulk %d", v))
		if err != nil {
			t.Fatal(err)
		}
		last = nv
		versions = append(versions, nv)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().ResidentBytes(); got > pageBudget {
		t.Fatalf("resident %d bytes exceeds page budget %d after checkpoint", got, pageBudget)
	}
	// Acknowledged work past the checkpoint rides only in the WAL.
	tail, err := d.Commit([]Row{{Int(999999), String("tail")}}, []VersionID{last}, "post-checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[VersionID][]string)
	for _, v := range append(versions, tail) {
		want[v] = sortedCheckout(t, d, v)
	}
	crash(s)

	r := open()
	defer crash(r)
	rd, err := r.Dataset("big")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(versions, tail) {
		got := sortedCheckout(t, rd, v)
		if len(got) != len(want[v]) {
			t.Fatalf("version %d: recovered %d rows, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("version %d row %d diverged after crash recovery", v, i)
			}
		}
	}
	if faults := r.DB().Stats().PageFaults.Load(); faults == 0 {
		t.Fatal("no page faults: the dataset cannot have exceeded the resident budget")
	}
}
