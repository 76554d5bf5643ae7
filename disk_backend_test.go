package orpheusdb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/engine/diskv"
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

// legacyGobPage encodes a page the way stores were written before the page
// layout of internal/engine/pagecodec.go: gob over the live rows and a
// liveness mask (gob matches the struct by its field names).
func legacyGobPage(t *testing.T, slots []engine.Row) []byte {
	t.Helper()
	var pd struct {
		Live []bool
		Rows []engine.Row
	}
	pd.Live = make([]bool, len(slots))
	for i, r := range slots {
		if r != nil {
			pd.Live[i] = true
			pd.Rows = append(pd.Rows, r)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&pd); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pageFormats counts the page values of a diskv file by their first byte:
// gob streams (a length below 0x80 or a marker from 0xF8) and the page layout.
func pageFormats(t *testing.T, path string) (gobPages, typedPages int) {
	t.Helper()
	kv, err := diskv.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for _, key := range kv.Keys("page/") {
		val, ok, err := kv.Get(key)
		if err != nil || !ok || len(val) == 0 {
			t.Fatalf("page %s: ok=%v err=%v len=%d", key, ok, err, len(val))
		}
		if val[0] < 0x80 || val[0] >= 0xF8 {
			gobPages++
		} else {
			typedPages++
		}
	}
	return gobPages, typedPages
}

// TestDiskBackendLegacyGobPagesUpgradeByUse: a store whose pages an older
// binary gob-encoded opens, serves every version exactly as recorded, and
// turns into the page layout by being used — the pages a commit dirties at
// the next checkpoint, the rest when the file is compacted — with nothing to
// choose a format by.
func TestDiskBackendLegacyGobPagesUpgradeByUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.odb")
	open := func() *Store {
		s, err := OpenStoreWithOptions(path, StoreOptions{Backend: BackendDisk, PageBudgetBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSaveDelay(time.Hour)
		return s
	}
	s := open()
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	versions := growChain(t, d, 6, 150) // 900 records: several data pages
	want := make(map[VersionID][]string)
	for _, v := range versions {
		want[v] = sortedCheckout(t, d, v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite every page value as the parent commit would have written it.
	b, err := engine.OpenDiskBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := b.TableMetas()
	if err != nil {
		t.Fatal(err)
	}
	legacy := make(map[string][]byte)
	for _, m := range metas {
		for p := 0; p < m.Pages; p++ {
			slots, err := b.ReadPage(m.ID, p)
			if err != nil {
				t.Fatal(err)
			}
			legacy[fmt.Sprintf("page/%016x/%08x", m.ID, p)] = legacyGobPage(t, slots)
		}
	}
	b.Close()
	kv, err := diskv.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(kv.Keys("page/")); got != len(legacy) || got < 4 {
		t.Fatalf("%d page keys in the file, %d rebuilt from the catalog", got, len(legacy))
	}
	for key, val := range legacy {
		if err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Commit(); err != nil {
		t.Fatal(err)
	}
	kv.Close()
	if g, typed := pageFormats(t, path); typed != 0 || g != len(legacy) {
		t.Fatalf("legacy fixture has %d gob and %d typed pages, want %d and 0", g, typed, len(legacy))
	}

	check := func(d *Dataset, vs []VersionID) {
		t.Helper()
		for _, v := range vs {
			got := sortedCheckout(t, d, v)
			if len(got) != len(want[v]) {
				t.Fatalf("version %d: %d rows, want %d", v, len(got), len(want[v]))
			}
			for i := range got {
				if got[i] != want[v][i] {
					t.Fatalf("version %d row %d:\n  recorded %s\n  got      %s", v, i, want[v][i], got[i])
				}
			}
		}
	}
	s = open()
	d, err = s.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	check(d, versions)

	// Use it: a commit dirties some pages, the checkpoint writes those back
	// in the page layout and leaves the others as they are.
	ids := make([]int64, 50)
	for i := range ids {
		ids[i] = int64(5000 + i)
	}
	tail := mustCommit(t, d, versions[len(versions)-1:], "after upgrade", ids...)
	want[tail] = sortedCheckout(t, d, tail)
	versions = append(versions, tail)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	g, typed := pageFormats(t, path)
	if g == 0 || typed == 0 {
		t.Fatalf("after one commit and checkpoint: %d gob and %d typed pages, want some of each", g, typed)
	}

	// Compaction re-encodes what no commit touched.
	s = open()
	if err := s.DB().Backend().(*engine.DiskBackend).Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if g, typed = pageFormats(t, path); g != 0 || typed < len(legacy) {
		t.Fatalf("after compaction: %d gob and %d typed pages, want 0 and ≥ %d", g, typed, len(legacy))
	}

	s = open()
	defer s.Close()
	d, err = s.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	check(d, versions)
}

// TestOpenStoreTreatsHeaderlessFileAsNew: a file shorter than the 8-byte
// diskv header is what a crash between creating the store file and its first
// synced header leaves. Every engine choice must open it as a store that does
// not exist yet — and the store must then work and survive a reopen —
// whether the torn bytes are a prefix of the diskv header (from 4 bytes on
// that prefix carries the magic) or anything else.
func TestOpenStoreTreatsHeaderlessFileAsNew(t *testing.T) {
	const diskvHeader = "ODKV\x01\x00\x00\x00"
	for name, content := range map[string]string{"header-prefix": diskvHeader, "zeros": "\x00\x00\x00\x00\x00\x00\x00\x00"} {
		for size := 0; size < len(diskvHeader); size++ {
			for _, backend := range []BackendKind{BackendAuto, BackendMemory, BackendDisk} {
				t.Run(fmt.Sprintf("%s-%dB/backend=%s", name, size, backend), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "store.odb")
					if err := os.WriteFile(path, []byte(content[:size]), 0o644); err != nil {
						t.Fatal(err)
					}
					s, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend})
					if err != nil {
						t.Fatalf("open a %d-byte file: %v", size, err)
					}
					want := backend
					if want == BackendAuto {
						want = BackendMemory // what a new store gets
					}
					if s.BackendKind() != want {
						t.Fatalf("opened as %q, want %q", s.BackendKind(), want)
					}
					d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
					if err != nil {
						t.Fatal(err)
					}
					v := mustCommit(t, d, nil, "c", 1, 2, 3)
					rows := sortedCheckout(t, d, v)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					r, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend})
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer r.Close()
					rd, err := r.Dataset("prot")
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedCheckout(t, rd, v); fmt.Sprint(got) != fmt.Sprint(rows) {
						t.Fatalf("after reopen %v, want %v", got, rows)
					}
				})
			}
		}
	}
	// From the header length on, the bytes decide: not a store of either
	// format is an error, not a fresh start over somebody's file.
	path := filepath.Join(t.TempDir(), "junk.odb")
	if err := os.WriteFile(path, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []BackendKind{BackendAuto, BackendMemory, BackendDisk} {
		if s, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend}); err == nil {
			s.Close()
			t.Fatalf("backend %q opened an 11-byte junk file", backend)
		}
	}
}
