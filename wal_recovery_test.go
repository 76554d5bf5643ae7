package orpheusdb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"orpheusdb/internal/wal"
)

// Crash-recovery suite for the write-ahead log: every test mutates a store,
// simulates a SIGKILL (no flush, no checkpoint beyond what the test ran
// explicitly), reopens from the surviving files, and asserts the recovered
// state matches exactly what had been acknowledged.

// walTestBackend selects the storage engine every openWALStore call uses.
// The default (memory) runs the suite as it always ran; the disk-backend
// umbrella test flips it to re-run the same matrices against the page store.
// Tests in this package run sequentially, so a plain variable is safe.
var walTestBackend = BackendMemory

// openWALStore opens (or reopens) a WAL-backed store rooted at dir, on the
// backend walTestBackend selects. The debounced save is pushed out to an
// hour so checkpoints only happen when a test asks for one.
func openWALStore(t *testing.T, dir string, policy FsyncPolicy) *Store {
	t.Helper()
	return openWALStoreCfg(t, dir, WALConfig{Policy: policy})
}

// openWALStoreCfg is openWALStore with the full WAL configuration exposed
// (segment size, fsync cadence) for tests that need rotation behavior.
func openWALStoreCfg(t *testing.T, dir string, cfg WALConfig) *Store {
	t.Helper()
	s, err := OpenStoreWithOptions(filepath.Join(dir, "store.odb"), StoreOptions{Backend: walTestBackend})
	if err != nil {
		t.Fatalf("OpenStoreWithOptions: %v", err)
	}
	s.SetSaveDelay(time.Hour)
	if err := s.EnableWAL(cfg); err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}
	return s
}

// crash abandons the store without flushing: the pending debounced save is
// cancelled and the log's file handle released. Anything not already handed
// to the OS is lost, exactly as with a SIGKILL. For a disk-backend store the
// page file's handle (and its flock) is released too — diskv discards writes
// staged since the last commit frame, which is exactly what a kill leaves
// behind — so the next open in this process can take the lock.
func crash(s *Store) {
	s.saveMu.Lock()
	if s.saveTimer != nil {
		s.saveTimer.Stop()
	}
	s.saveArmed = false
	s.saveMu.Unlock()
	if s.wal != nil {
		s.wal.Close()
	}
	if s.db.Backend() != nil {
		s.db.CloseBackend()
	}
}

func protCols() []Column {
	return []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
	}
}

func mustCommit(t *testing.T, d *Dataset, parents []VersionID, msg string, ids ...int64) VersionID {
	t.Helper()
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = Row{Int(id), String(fmt.Sprintf("r%d", id))}
	}
	v, err := d.Commit(rows, parents, msg)
	if err != nil {
		t.Fatalf("commit %q: %v", msg, err)
	}
	return v
}

// growChain commits a chain of n versions onto a protCols dataset, each
// holding its parent's rows plus per new ones, and returns the version ids.
func growChain(t *testing.T, d *Dataset, n, per int) []VersionID {
	t.Helper()
	var vids []VersionID
	var ids []int64
	for i := 0; i < n; i++ {
		for j := 0; j < per; j++ {
			ids = append(ids, int64(len(ids)))
		}
		var parents []VersionID
		if i > 0 {
			parents = vids[i-1:]
		}
		vids = append(vids, mustCommit(t, d, parents, fmt.Sprintf("c%d", i), ids...))
	}
	return vids
}

func assertVersions(t *testing.T, d *Dataset, want ...VersionID) {
	t.Helper()
	got := d.Versions()
	if len(got) != len(want) {
		t.Fatalf("versions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("versions = %v, want %v", got, want)
		}
	}
}

// TestWALRecoveryNoCheckpoint crashes before any snapshot exists: the entire
// store state must come back from the log alone.
func TestWALRecoveryNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncAlways)
	if err := s.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2, 3)
	v2 := mustCommit(t, d, []VersionID{v1}, "v2", 2, 3, 4)
	v3, err := d.CommitWithSchema(context.Background(),
		[]Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}, {Name: "score", Type: KindFloat}},
		[]Row{{Int(5), String("r5"), Float(0.5)}},
		[]VersionID{v2}, "v3 schema evolution")
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := s.Init("scratch", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, scratch, nil, "doomed", 9)
	if err := s.Drop("scratch"); err != nil {
		t.Fatal(err)
	}
	wantRows, err := d.Checkout(v3)
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, err := d.Info(v2)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)
	if walTestBackend != BackendDisk {
		// (A disk-backend store creates its page file at open; only the gob
		// snapshot is written lazily at the first checkpoint.)
		if _, err := os.Stat(filepath.Join(dir, "store.odb")); !os.IsNotExist(err) {
			t.Fatalf("premise broken: snapshot file exists before any checkpoint")
		}
	}

	r := openWALStore(t, dir, FsyncAlways)
	defer crash(r)
	if got := r.List(); len(got) != 1 || got[0] != "prot" {
		t.Fatalf("recovered datasets = %v, want [prot]", got)
	}
	found := false
	for _, u := range r.Users() {
		if u == "alice" {
			found = true
		}
	}
	if !found {
		t.Fatalf("user alice not recovered (users: %v)", r.Users())
	}
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, v1, v2, v3)
	gotRows, err := rd.Checkout(v3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("checkout(v3) after recovery: %d rows, want %d", len(gotRows), len(wantRows))
	}
	gotInfo, err := rd.Info(v2)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo.Message != wantInfo.Message || !gotInfo.CommitTime.Equal(wantInfo.CommitTime) {
		t.Fatalf("recovered v2 info %+v, want %+v", gotInfo, wantInfo)
	}
	if gotInfo.NumRecords != wantInfo.NumRecords {
		t.Fatalf("recovered v2 has %d records, want %d", gotInfo.NumRecords, wantInfo.NumRecords)
	}
	// The recovered store is live: committing works (the schema now has the
	// evolved third column) and extends the graph.
	v4, err := rd.Commit([]Row{{Int(6), String("r6"), Float(1.5)}}, []VersionID{v3}, "post-recovery")
	if err != nil {
		t.Fatal(err)
	}
	if v4 != v3+1 {
		t.Fatalf("post-recovery commit got version %d, want %d", v4, v3+1)
	}
}

// TestCheckpointCountsBytesWritten: one checkpoint raises the checkpoint
// count by one and the byte count by what it wrote: exactly the snapshot
// file on the memory backend, the flushed pages on the disk backend.
func TestCheckpointCountsBytesWritten(t *testing.T) {
	for _, backend := range []BackendKind{BackendMemory, BackendDisk} {
		t.Run(string(backend), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.odb")
			s, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetSaveDelay(time.Hour)
			d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
			if err != nil {
				t.Fatal(err)
			}
			mustCommit(t, d, nil, "v1", 1, 2, 3)
			before := s.WALStatus()
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			after := s.WALStatus()
			if n := after.Checkpoints - before.Checkpoints; n != 1 {
				t.Fatalf("one checkpoint counted %d times", n)
			}
			grew := after.CheckpointBytes - before.CheckpointBytes
			if backend == BackendDisk {
				if grew <= 0 {
					t.Fatalf("disk checkpoint counted %d bytes, want > 0", grew)
				}
				return
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if grew != fi.Size() {
				t.Fatalf("memory checkpoint counted %d bytes, snapshot file has %d", grew, fi.Size())
			}
		})
	}
}

// TestCloseClosesWAL: on either backend Close checkpoints and closes the
// WAL the store owns, so a later CloseWAL is a no-op, and the store reopens
// with its commits.
func TestCloseClosesWAL(t *testing.T) {
	for _, backend := range []BackendKind{BackendMemory, BackendDisk} {
		t.Run(string(backend), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.odb")
			open := func() *Store {
				s, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				s.SetSaveDelay(time.Hour)
				if err := s.EnableWAL(WALConfig{Policy: FsyncAlways}); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
			if err != nil {
				t.Fatal(err)
			}
			v1 := mustCommit(t, d, nil, "v1", 1, 2, 3)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s.WALEnabled() {
				t.Fatal("WAL still attached after Close")
			}
			if err := s.CloseWAL(); err != nil {
				t.Fatalf("CloseWAL after Close: %v", err)
			}

			r := open()
			defer r.Close()
			rd, err := r.Dataset("prot")
			if err != nil {
				t.Fatal(err)
			}
			if rows, err := rd.Checkout(v1); err != nil || len(rows) != 3 {
				t.Fatalf("checkout after reopen: %d rows, %v", len(rows), err)
			}
		})
	}
}

// TestWALRecoveryAfterCheckpoint mixes snapshot and log: a checkpoint covers
// a prefix, the log holds the tail, and recovery stitches them together.
func TestWALRecoveryAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncInterval)
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.WALStatus()
	if !st.Enabled || st.CheckpointLSN == 0 || st.CheckpointLSN != st.AppliedLSN {
		t.Fatalf("after checkpoint, status = %+v", st)
	}
	if st.Checkpoints < 1 || st.CheckpointBytes <= 0 {
		t.Fatalf("checkpoint accounting missing: %+v", st)
	}
	v2 := mustCommit(t, d, []VersionID{v1}, "after checkpoint", 2, 3)
	if err := s.AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openWALStore(t, dir, FsyncInterval)
	defer crash(r)
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, v1, v2)
	rows, err := rd.Checkout(v2)
	if err != nil || len(rows) != 2 {
		t.Fatalf("checkout(v2) = %d rows, %v; want 2", len(rows), err)
	}
	found := false
	for _, u := range r.Users() {
		found = found || u == "bob"
	}
	if !found {
		t.Fatal("user bob (logged after the checkpoint) not recovered")
	}
}

// TestWALCheckpointTruncatesLog verifies the checkpoint/truncation
// lifecycle: once a snapshot covers the log, obsolete segments are removed
// and recovery replays only the tail.
func TestWALCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so commits rotate often.
	s := openWALStoreCfg(t, dir, WALConfig{Policy: FsyncOff, SegmentBytes: 512})
	d, err := s.Init("prot", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := VersionID(0)
	for i := 0; i < 20; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		last = mustCommit(t, d, parents, fmt.Sprintf("c%d", i), int64(i), int64(i+1))
	}
	before := s.WALStatus()
	if before.Segments < 3 {
		t.Fatalf("premise: want several segments, got %d", before.Segments)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.WALStatus()
	if after.Segments >= before.Segments || after.SizeBytes >= before.SizeBytes {
		t.Fatalf("checkpoint did not truncate: %d segs/%dB -> %d segs/%dB",
			before.Segments, before.SizeBytes, after.Segments, after.SizeBytes)
	}
	mustCommit(t, d, []VersionID{last}, "tail", 99)
	crash(s)

	r := openWALStore(t, dir, FsyncOff)
	defer crash(r)
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rd.Versions()); got != 21 {
		t.Fatalf("recovered %d versions, want 21", got)
	}
}

// TestWALCommitTableRecovery covers the staged-table commit path: the WAL
// record carries the materialized rows, so recovery does not need the (lost)
// staging table.
func TestWALCommitTableRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncAlways)
	if err := s.CreateUser("carol"); err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2)
	if err := d.CheckoutToTable("work", v1); err != nil {
		t.Fatal(err)
	}
	// Edit the staged table through SQL, then commit it back.
	if _, err := s.Run("INSERT INTO work VALUES (7, 'seven')"); err != nil {
		t.Fatal(err)
	}
	v2, err := d.CommitTable("work", "staged edit")
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Checkout(v2)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openWALStore(t, dir, FsyncAlways)
	defer crash(r)
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, v1, v2)
	got, err := rd.Checkout(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 3 {
		t.Fatalf("recovered checkout(v2) = %d rows, want %d", len(got), len(want))
	}
	if r.DB().HasTable("work") {
		t.Fatal("staged table resurrected after its commit was replayed")
	}
}

// listSegments names the wal-*.log segment files in a log directory (the
// lock file and anything else is excluded), sorted by name = first LSN.
func listSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			out = append(out, e.Name())
		}
	}
	return out
}

// copyWALDir clones the store's files (snapshot + log segments) into a fresh
// directory, optionally cutting the newest segment at cutBytes.
func copyWALDir(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	if data, err := os.ReadFile(filepath.Join(src, "store.odb")); err == nil {
		if err := os.WriteFile(filepath.Join(dst, "store.odb"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	walSrc := filepath.Join(src, "store.odb.wal")
	if err := os.MkdirAll(filepath.Join(dst, "store.odb.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Segment names sort by first LSN, so the last one is the newest; the
	// cut applies to it.
	segs := listSegments(t, walSrc)
	for i, name := range segs {
		data, err := os.ReadFile(filepath.Join(walSrc, name))
		if err != nil {
			t.Fatal(err)
		}
		if i == len(segs)-1 && cut >= 0 && cut < int64(len(data)) {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, "store.odb.wal", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALKillPoint is the acceptance test: the log is cut at arbitrary byte
// offsets (simulating a crash with a partially flushed tail) and recovery
// must always come back with exactly a prefix of the acknowledged commits —
// never an error, never a half-applied version — and stay writable.
func TestWALKillPoint(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncOff)
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	acked := []VersionID{}
	last := VersionID(0)
	for i := 0; i < 6; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		last = mustCommit(t, d, parents, fmt.Sprintf("c%d", i), int64(i), int64(i)+100)
		acked = append(acked, last)
	}
	crash(s)

	seg := filepath.Join(dir, "store.odb.wal")
	segs := listSegments(t, seg)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	fi, err := os.Stat(filepath.Join(seg, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	step := int64(7)
	if testing.Short() {
		step = 97
	}
	prevRecovered := -1
	for cut := int64(0); cut <= size; cut += step {
		if cut+step > size {
			cut = size // always test the clean tail too
		}
		cutDir := copyWALDir(t, dir, cut)
		r := openWALStore(t, cutDir, FsyncOff)
		nVersions := 0
		if names := r.List(); len(names) == 1 {
			rd, err := r.Dataset("prot")
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			vs := rd.Versions()
			nVersions = len(vs)
			// Exactly a prefix of the acknowledged versions.
			for i, v := range vs {
				if v != acked[i] {
					t.Fatalf("cut %d: recovered versions %v are not a prefix of %v", cut, vs, acked)
				}
			}
			if nVersions > 0 {
				rows, err := rd.Checkout(vs[nVersions-1])
				if err != nil || len(rows) != 2 {
					t.Fatalf("cut %d: checkout latest = %d rows, %v", cut, len(rows), err)
				}
				// Recovered store accepts new work.
				mustCommit(t, rd, []VersionID{vs[nVersions-1]}, "again", 777)
			}
		} else if len(r.List()) > 1 {
			t.Fatalf("cut %d: unexpected datasets %v", cut, r.List())
		}
		if nVersions < prevRecovered-0 && cut != size {
			// Larger cuts can only recover >= as much as smaller cuts.
			t.Fatalf("cut %d: recovered %d versions, previously %d", cut, nVersions, prevRecovered)
		}
		prevRecovered = nVersions
		crash(r)
		if cut == size {
			if nVersions != len(acked) {
				t.Fatalf("uncut log recovered %d versions, want %d", nVersions, len(acked))
			}
			break
		}
	}
}

// TestWALConcurrentCommitsWithCheckpoints hammers four datasets from four
// goroutines while checkpoints run concurrently, then crashes and checks
// that every acknowledged commit survived.
func TestWALConcurrentCommitsWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncOff)
	const (
		datasets = 4
		commits  = 25
	)
	names := make([]string, datasets)
	for i := range names {
		names[i] = fmt.Sprintf("ds%d", i)
		if _, err := s.Init(names[i], protCols(), InitOptions{PrimaryKey: []string{"id"}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	acked := make([][]VersionID, datasets)
	for i := 0; i < datasets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := s.Dataset(names[i])
			if err != nil {
				t.Errorf("%s: %v", names[i], err)
				return
			}
			var last VersionID
			for c := 0; c < commits; c++ {
				var parents []VersionID
				if last != 0 {
					parents = []VersionID{last}
				}
				v, err := d.Commit([]Row{{Int(int64(c)), String("x")}}, parents, fmt.Sprintf("c%d", c))
				if err != nil {
					t.Errorf("%s commit %d: %v", names[i], c, err)
					return
				}
				last = v
				acked[i] = append(acked[i], v)
			}
		}(i)
	}
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
				if err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stopCkpt)
	ckptWG.Wait()
	if t.Failed() {
		return
	}
	crash(s)

	r := openWALStore(t, dir, FsyncOff)
	defer crash(r)
	for i, name := range names {
		rd, err := r.Dataset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := rd.Versions()
		if len(got) != len(acked[i]) {
			t.Fatalf("%s: recovered %d versions, acked %d", name, len(got), len(acked[i]))
		}
		rows, err := rd.Checkout(got[len(got)-1])
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: checkout latest: %d rows, %v", name, len(rows), err)
		}
	}
}

// TestWALInMemoryStore uses the log as the sole persistence: a NewStore with
// an explicit WAL directory recovers purely from the log.
func TestWALInMemoryStore(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "log")
	s := NewStore()
	if err := s.EnableWAL(WALConfig{Dir: walDir, Policy: FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("mem", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1)
	crash(s)

	r := NewStore()
	if err := r.EnableWAL(WALConfig{Dir: walDir, Policy: FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer crash(r)
	rd, err := r.Dataset("mem")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, v1)
}

// walRecordTypes counts the records of a crashed store's log by type, reading
// a copy so the store's own files stay as the crash left them.
func walRecordTypes(t *testing.T, dir string) map[wal.Type]int {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(copyWALDir(t, dir, -1), "store.odb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	types := map[wal.Type]int{}
	if err := l.Replay(0, func(_ uint64, rec *wal.Record) error {
		types[rec.Type]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

// TestWALOptimizeRecovery replays a manual partition-optimizer run: the log
// holds the migration's batches, not the solver's inputs, so recovery
// re-applies them and never asks LYRESPLIT again.
func TestWALOptimizeRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncOff)
	d, err := s.Init("part", protCols(), InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	last := VersionID(0)
	for i := 0; i < 8; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		ids := make([]int64, 0, 4)
		for j := 0; j < 4; j++ {
			ids = append(ids, int64(i*4+j))
		}
		last = mustCommit(t, d, parents, fmt.Sprintf("c%d", i), ids...)
	}
	rep, err := d.Optimize(2.0)
	if err != nil {
		t.Fatal(err)
	}
	v9 := mustCommit(t, d, []VersionID{last}, "after optimize", 500)
	want, err := d.Checkout(v9)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)
	types := walRecordTypes(t, dir)
	if types[wal.TypeOptimizeMigrate] != rep.Batches || types[wal.TypeOptimize] != 0 || types[wal.TypeMaintain] != 0 {
		t.Fatalf("log holds %v; want %d optimize-migrate records and no optimize/maintain", types, rep.Batches)
	}

	r := openWALStore(t, dir, FsyncOff)
	defer crash(r)
	rd, err := r.Dataset("part")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rd.Versions()); got != 9 {
		t.Fatalf("recovered %d versions, want 9", got)
	}
	got, err := rd.Checkout(v9)
	if err != nil || len(got) != len(want) {
		t.Fatalf("checkout after optimize replay: %d rows, %v; want %d", len(got), err, len(want))
	}
	if st, _ := rd.PartitionStatus(); len(st.Partitions) < 2 {
		t.Fatalf("replay left %d partitions: the logged batches were not applied", len(st.Partitions))
	}
}

// TestWALLegacyOptimizeRecords recovers a log written before repartitioning
// logged its batches: optimize records (plain, with the naive bit, weighted
// with frequencies) and a maintain record sit between commits and carry only
// the solver's inputs. Nothing writes them any more, but they must still
// decode and replay — through the same solve → plan → apply-batches path a
// live optimize takes — with every version checking out to its pre-crash
// contents and the commits logged after them passing replay's version-id and
// membership divergence checks.
func TestWALLegacyOptimizeRecords(t *testing.T) {
	// The commits come from a live store, so their records (timestamps,
	// membership bitmaps, version ids) are exactly what a store writes; the
	// legacy records are spliced in where the old store would have put them.
	src := t.TempDir()
	s := openWALStore(t, src, FsyncOff)
	d, err := s.Init("part", protCols(), InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	vids := growChain(t, d, 20, 4)
	want := make(map[VersionID][]string, len(vids))
	for _, v := range vids {
		want[v] = sortedCheckout(t, d, v)
	}
	crash(s)

	legacy := map[VersionID]*wal.Record{ // appended after this version's commit
		vids[4]:  {Type: wal.TypeOptimize, Dataset: "part", Gamma: 2},
		vids[8]:  {Type: wal.TypeOptimize, Dataset: "part", Gamma: 2, Naive: true},
		vids[12]: {Type: wal.TypeOptimize, Dataset: "part", Gamma: 2, Weighted: true, Freq: map[int64]int64{int64(vids[11]): 2, int64(vids[12]): 2}},
		vids[16]: {Type: wal.TypeMaintain, Dataset: "part", Gamma: 2, Mu: 1.05},
	}
	in, err := wal.Open(wal.Options{Dir: filepath.Join(src, "store.odb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	dir := t.TempDir()
	out, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "store.odb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Replay(0, func(_ uint64, rec *wal.Record) error {
		if _, err := out.Append(rec); err != nil {
			return err
		}
		if old, ok := legacy[VersionID(rec.Version)]; ok && rec.Type == wal.TypeCommit {
			_, err = out.Append(old)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	r := openWALStore(t, dir, FsyncOff) // EnableWAL fails on any replay divergence
	defer crash(r)
	rd, err := r.Dataset("part")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, vids...)
	for _, v := range vids {
		if got := sortedCheckout(t, rd, v); fmt.Sprint(got) != fmt.Sprint(want[v]) {
			t.Fatalf("version %d differs after replaying the legacy log", v)
		}
	}
	if st, _ := rd.PartitionStatus(); len(st.Partitions) < 2 {
		t.Fatalf("legacy optimize records left %d partitions", len(st.Partitions))
	}
	// The recovered store carries on in the current format.
	mustCommit(t, rd, vids[len(vids)-1:], "after recovery", 9001)
	if _, err := rd.Optimize(2); err != nil {
		t.Fatal(err)
	}
}

// TestWALBranchMergeRecovery replays the full branch/merge record set:
// branch create/advance/delete and true merge commits must reconstruct the
// identical branch heads, lineage bitmaps, and merged record sets.
func TestWALBranchMergeRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncAlways)
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2)
	v2 := mustCommit(t, d, []VersionID{v1}, "ours", 1, 2, 3)
	v3 := mustCommit(t, d, []VersionID{v1}, "theirs", 1, 2, 4)
	if _, err := d.CreateBranch("main", v2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateBranch("doomed", v1); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteBranch("doomed"); err != nil {
		t.Fatal(err)
	}
	// True merge into the branch: logs one TypeMerge record that also
	// advances the head on replay.
	res, err := d.Merge("main", fmt.Sprint(v3), MergeFail, "merge v3")
	if err != nil {
		t.Fatal(err)
	}
	// Fast-forward a second branch: logs TypeBranchAdvance.
	if _, err := d.CreateBranch("trail", v1); err != nil {
		t.Fatal(err)
	}
	ff, err := d.Merge("trail", fmt.Sprint(res.Version), MergeFail, "")
	if err != nil || !ff.FastForward {
		t.Fatalf("expected fast-forward, got %+v, %v", ff, err)
	}
	wantMain, err := d.Branch("main")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := d.Checkout(res.Version)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openWALStore(t, dir, FsyncAlways)
	defer crash(r)
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Branch("main")
	if err != nil {
		t.Fatal(err)
	}
	if got.Head != wantMain.Head || !got.Lineage.Equal(wantMain.Lineage) {
		t.Fatalf("recovered main = head %d lineage %v, want head %d lineage %v",
			got.Head, got.Lineage.ToSlice(), wantMain.Head, wantMain.Lineage.ToSlice())
	}
	if !got.CreatedAt.Equal(wantMain.CreatedAt) {
		t.Fatalf("recovered creation time %v, want %v", got.CreatedAt, wantMain.CreatedAt)
	}
	if trail, err := rd.Branch("trail"); err != nil || trail.Head != res.Version {
		t.Fatalf("recovered trail = %+v, %v", trail, err)
	}
	if _, err := rd.Branch("doomed"); err == nil {
		t.Fatal("deleted branch resurrected by replay")
	}
	rows, err := rd.Checkout(res.Version)
	if err != nil || len(rows) != len(wantRows) {
		t.Fatalf("recovered merge checkout: %d rows, %v; want %d", len(rows), err, len(wantRows))
	}
	// The recovered store keeps merging.
	v6 := mustCommit(t, rd, []VersionID{res.Version}, "post", 9)
	if post, err := rd.Merge("main", fmt.Sprint(v6), MergeFail, ""); err != nil || !post.FastForward {
		t.Fatalf("post-recovery merge = %+v, %v", post, err)
	}
}

// TestWALKillPointBranchMerge extends the kill-point matrix to branch/merge
// records: the log (holding commits, branch creations, a conflicting merge
// resolved by policy, and branch advances) is cut at arbitrary offsets;
// every cut must recover a consistent prefix — branch heads always point at
// existing versions, lineage bitmaps always equal the head's ancestry — and
// the full log must replay to the identical branch head.
func TestWALKillPointBranchMerge(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncOff)
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2, 3)
	if _, err := d.CreateBranch("main", v1); err != nil {
		t.Fatal(err)
	}
	v2 := mustCommit(t, d, []VersionID{v1}, "ours", 1, 2, 3, 10)
	v3 := mustCommit(t, d, []VersionID{v1}, "theirs", 1, 2, 3, 20)
	// Advance main onto ours via fast-forward, then a true merge of theirs.
	if _, err := d.Merge("main", fmt.Sprint(v2), MergeFail, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Merge("main", fmt.Sprint(v3), MergeFail, "true merge"); err != nil {
		t.Fatal(err)
	}
	// Conflicting pair resolved by policy (exercises TypeMerge with a
	// non-default policy on replay).
	v5 := mustCommit(t, d, []VersionID{v1}, "left", 1, 2, 3, 30)
	v6 := mustCommit(t, d, []VersionID{v1}, "right", 1, 2, 3, 30)
	_ = v5
	if _, err := d.Merge("main", fmt.Sprint(v6), MergeTheirs, "resolved"); err != nil {
		t.Fatal(err)
	}
	wantHead, err := d.Branch("main")
	if err != nil {
		t.Fatal(err)
	}
	wantVersions := len(d.Versions())
	crash(s)

	seg := filepath.Join(dir, "store.odb.wal")
	segs := listSegments(t, seg)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	fi, err := os.Stat(filepath.Join(seg, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	step := int64(13)
	if testing.Short() {
		step = 131
	}
	for cut := int64(0); cut <= size; cut += step {
		if cut+step > size {
			cut = size
		}
		cutDir := copyWALDir(t, dir, cut)
		r := openWALStore(t, cutDir, FsyncOff)
		if names := r.List(); len(names) == 1 {
			rd, err := r.Dataset("prot")
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			// Every recovered branch is internally consistent: its head
			// exists and its lineage is exactly the head's ancestry.
			for _, b := range rd.Branches() {
				if _, err := rd.Info(b.Head); err != nil {
					t.Fatalf("cut %d: branch %s head %d missing: %v", cut, b.Name, b.Head, err)
				}
				anc, err := rd.Ancestors(b.Head)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if want := int64(len(anc) + 1); b.Lineage.Cardinality() != want {
					t.Fatalf("cut %d: branch %s lineage has %d versions, ancestry says %d",
						cut, b.Name, b.Lineage.Cardinality(), want)
				}
				if !b.Lineage.Contains(int64(b.Head)) {
					t.Fatalf("cut %d: branch %s lineage misses its own head", cut, b.Name)
				}
			}
			// The recovered store accepts further branch/merge work.
			if vs := rd.Versions(); len(vs) >= 2 {
				if _, err := rd.Merge(fmt.Sprint(vs[len(vs)-1]), fmt.Sprint(vs[0]), MergeOurs, "probe"); err != nil {
					t.Fatalf("cut %d: post-recovery merge: %v", cut, err)
				}
			}
		}
		if cut == size {
			rd, err := r.Dataset("prot")
			if err != nil {
				t.Fatal(err)
			}
			// Replay of the complete log converges to the identical head.
			b, err := rd.Branch("main")
			if err != nil {
				t.Fatalf("uncut log lost branch main: %v", err)
			}
			if b.Head != wantHead.Head || !b.Lineage.Equal(wantHead.Lineage) {
				t.Fatalf("uncut replay head = %d, want %d", b.Head, wantHead.Head)
			}
			// The probe merge above may have appended one version.
			if got := len(rd.Versions()); got < wantVersions {
				t.Fatalf("uncut replay recovered %d versions, want >= %d", got, wantVersions)
			}
			crash(r)
			break
		}
		crash(r)
	}
}

// TestWALStatusDisabled: WALStatus is meaningful without a WAL too.
func TestWALStatusDisabled(t *testing.T) {
	s := NewStore()
	st := s.WALStatus()
	if st.Enabled || st.AppliedLSN != 0 || st.AppendError != "" {
		t.Fatalf("zero-state status = %+v", st)
	}
	if s.WALEnabled() {
		t.Fatal("WALEnabled on a plain store")
	}
}

// TestWALKillPointOptimizeMigrate extends the kill-point matrix to the
// optimize-migrate record: every repartitioning — the optimizer's Trigger and
// each manual call with no optimizer running — is WAL-logged batch by batch,
// and the log is cut at arbitrary byte offsets across the whole migration.
// Every cut must recover to a consistent layout — some replayed prefix of the
// batch sequence — where every recovered version still checks out its exact
// acknowledged contents, and the store stays writable.
func TestWALKillPointOptimizeMigrate(t *testing.T) {
	for _, drv := range []struct {
		name    string
		migrate func(t *testing.T, s *Store, d *Dataset) *MigrationReport
	}{
		{"Trigger", func(t *testing.T, s *Store, d *Dataset) *MigrationReport {
			o, err := s.StartPartitionOptimizer(PartitionOptimizerConfig{
				Mu:        MuDisabled,
				BatchRows: 24, // many small batches = many kill points
				Interval:  time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer o.Stop()
			rep, err := o.Trigger(d.Name())
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"Optimize", func(t *testing.T, s *Store, d *Dataset) *MigrationReport {
			rep, err := d.Optimize(2)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"OptimizeWeighted", func(t *testing.T, s *Store, d *Dataset) *MigrationReport {
			rep, err := d.OptimizeWeighted(2, d.RecencyWeights(0.5, 2))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"MaintainPartitions", func(t *testing.T, s *Store, d *Dataset) *MigrationReport {
			m, err := d.MaintainPartitions(2, 1.05)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Migrated {
				t.Fatalf("single-partition chain within tolerance: %+v", m)
			}
			return m.Migration
		}},
	} {
		t.Run(drv.name, func(t *testing.T) { killPointOptimizeMigrate(t, drv.migrate) })
	}
}

func killPointOptimizeMigrate(t *testing.T, migrate func(*testing.T, *Store, *Dataset) *MigrationReport) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncOff)
	d, err := s.Init("part", protCols(), InitOptions{Model: PartitionedRlist, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	// Growing chain: version i carries 3*(i+1) rows, so the single initial
	// partition drifts and the plan needs several batches.
	acked := []VersionID{}
	last := VersionID(0)
	next := int64(0)
	for i := 0; i < 10; i++ {
		var parents []VersionID
		if last != 0 {
			parents = []VersionID{last}
		}
		ids := make([]int64, 0, next+3)
		for id := int64(0); id < next+3; id++ {
			ids = append(ids, id)
		}
		next += 3
		last = mustCommit(t, d, parents, fmt.Sprintf("c%d", i), ids...)
		acked = append(acked, last)
	}

	rep := migrate(t, s, d)
	if rep.Batches < 3 {
		t.Fatalf("migration used %d batches; the matrix needs a multi-batch log", rep.Batches)
	}
	// Traffic after the migration: the log tail mixes commit and migrate
	// records, so cuts land before, inside, and after the batch sequence.
	after := mustCommit(t, d, []VersionID{last}, "after migrate", 999)
	acked = append(acked, after)

	// Contents are invariant under migration, so one fingerprint per version
	// is the oracle for every cut.
	want := make(map[VersionID][]string, len(acked))
	for _, v := range acked {
		want[v] = sortedCheckout(t, d, v)
	}
	crash(s)

	seg := filepath.Join(dir, "store.odb.wal")
	segs := listSegments(t, seg)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	fi, err := os.Stat(filepath.Join(seg, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	step := int64(13)
	if testing.Short() {
		step = 251
	}
	for cut := int64(0); cut <= size; cut += step {
		if cut+step > size {
			cut = size // always include the clean tail
		}
		cutDir := copyWALDir(t, dir, cut)
		r := openWALStore(t, cutDir, FsyncOff)
		if names := r.List(); len(names) == 1 {
			rd, err := r.Dataset("part")
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			vs := rd.Versions()
			for i, v := range vs {
				if v != acked[i] {
					t.Fatalf("cut %d: recovered versions %v are not a prefix of %v", cut, vs, acked)
				}
				got := sortedCheckout(t, rd, v)
				if len(got) != len(want[v]) {
					t.Fatalf("cut %d: version %d has %d rows, want %d", cut, v, len(got), len(want[v]))
				}
				for j := range got {
					if got[j] != want[v][j] {
						t.Fatalf("cut %d: version %d row %d diverged after replay", cut, v, j)
					}
				}
			}
			if n := len(vs); n > 0 {
				// Recovered store accepts new work mid-migration-replay too.
				mustCommit(t, rd, []VersionID{vs[n-1]}, "again", 777)
			}
		} else if len(r.List()) > 1 {
			t.Fatalf("cut %d: unexpected datasets %v", cut, r.List())
		}
		crash(r)
		if cut == size {
			break
		}
	}
}
