package orpheusdb

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// A commit or merge is planned under the dataset's shared lock, logged, and
// only then installed. These tests pin the two consequences: a version is
// visible only once its record is logged, and a writer parked between its
// append and its install blocks other writers of the dataset but no reader.

// countAllVersions runs the all-versions view through SQL, which the
// checkout cache serves once warm, so a stale entry would show here.
func countAllVersions(t *testing.T, s *Store, where string) int64 {
	t.Helper()
	res, err := s.Run("SELECT count(*) FROM CVD prot" + where)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

func assertBranchHead(t *testing.T, d *Dataset, name string, want VersionID) {
	t.Helper()
	b, err := d.Branch(name)
	if err != nil {
		t.Fatal(err)
	}
	if b.Head != want {
		t.Fatalf("branch %s head = %d, want %d", name, b.Head, want)
	}
}

// TestFailedAppendInstallsNothing breaks the WAL under a live store and runs
// a commit, a true merge and a fast-forward merge into a branch. Each must
// fail and leave nothing a reader can see; reopening from the log must bring
// back exactly the acknowledged versions.
func TestFailedAppendInstallsNothing(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	s := NewStore()
	if err := s.EnableWAL(WALConfig{Dir: walDir, Policy: FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "base", 1, 2, 3)
	v2 := mustCommit(t, d, []VersionID{v1}, "ours", 1, 2, 3, 4)
	v3 := mustCommit(t, d, []VersionID{v1}, "theirs", 1, 2, 5)
	for name, at := range map[string]VersionID{"main": v2, "ff": v1} {
		if _, err := d.CreateBranch(name, at); err != nil {
			t.Fatal(err)
		}
	}
	acked := []VersionID{v1, v2, v3}
	predicted := v3 + 1
	allRows := countAllVersions(t, s, "") // warms the cached view

	s.wal.Close()
	invisible := func(op string) {
		t.Helper()
		assertVersions(t, d, acked...)
		if got := d.LatestVersion(); got != v3 {
			t.Fatalf("after failed %s: latest version = %d, want %d", op, got, v3)
		}
		if _, err := d.Checkout(predicted); err == nil {
			t.Fatalf("after failed %s: version %d checks out", op, predicted)
		}
		if got := countAllVersions(t, s, ""); got != allRows {
			t.Fatalf("after failed %s: all-versions view has %d rows, want %d", op, got, allRows)
		}
		if got := countAllVersions(t, s, " WHERE vid = "+strconv.Itoa(int(predicted))); got != 0 {
			t.Fatalf("after failed %s: all-versions view has %d rows of version %d", op, got, predicted)
		}
		assertBranchHead(t, d, "main", v2)
		assertBranchHead(t, d, "ff", v1)
	}

	if _, err := d.Commit([]Row{{Int(9), String("r9")}}, []VersionID{v2}, "lost"); err == nil {
		t.Fatal("commit on a broken WAL succeeded")
	}
	invisible("commit")
	res, err := d.Merge("main", fmt.Sprint(v3), MergeFail, "lost merge")
	if err == nil {
		t.Fatal("merge on a broken WAL succeeded")
	}
	if res == nil || res.FastForward || res.UpToDate {
		t.Fatalf("merge of %d into main should be a true merge, got %+v", v3, res)
	}
	invisible("merge")
	res, err = d.Merge("ff", fmt.Sprint(v2), MergeFail, "")
	if err == nil {
		t.Fatal("fast-forward on a broken WAL succeeded")
	}
	if res == nil || !res.FastForward {
		t.Fatalf("merge of %d into ff should fast-forward, got %+v", v2, res)
	}
	invisible("fast-forward")
	if s.WALStatus().AppendError == "" {
		t.Fatal("WALStatus reports no append error")
	}

	r := NewStore()
	if err := r.EnableWAL(WALConfig{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	defer r.CloseWAL()
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, acked...)
	assertBranchHead(t, rd, "main", v2)
	assertBranchHead(t, rd, "ff", v1)
	// The ids the failed writes predicted were never consumed.
	if v := mustCommit(t, rd, []VersionID{v2}, "after", 1, 6); v != predicted {
		t.Fatalf("first commit after reopen = version %d, want %d", v, predicted)
	}
}

// within runs f and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v while a writer was parked", what, d)
	}
}

// TestParkedWriterBlocksOnlyWriters parks a commit between its WAL append
// and its install. Readers of committed versions — checkout, diff, a
// versioned query — must complete and must not see the new version; a
// second commit to the dataset must wait for the first to install.
func TestParkedWriterBlocksOnlyWriters(t *testing.T) {
	s := NewStore()
	if err := s.EnableWAL(WALConfig{Dir: t.TempDir(), Policy: FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "v1", 1, 2, 3)
	v2 := mustCommit(t, d, []VersionID{v1}, "v2", 1, 2, 4)

	parked, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	s.loggedHook = func() {
		if calls.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	type outcome struct {
		v   VersionID
		err error
	}
	commit := func(msg string, ids ...int64) <-chan outcome {
		out := make(chan outcome, 1)
		rows := make([]Row, len(ids))
		for i, id := range ids {
			rows[i] = Row{Int(id), String(fmt.Sprintf("r%d", id))}
		}
		go func() {
			v, err := d.Commit(rows, []VersionID{v2}, msg)
			out <- outcome{v, err}
		}()
		return out
	}
	first := commit("parked", 1, 2, 4, 5)
	<-parked

	const wait = 5 * time.Second
	within(t, wait, "checkout of an older version", func() error {
		rows, err := d.Checkout(v1)
		if err == nil && len(rows) != 3 {
			err = fmt.Errorf("%d rows, want 3", len(rows))
		}
		return err
	})
	within(t, wait, "diff", func() error {
		onlyA, onlyB, err := d.Diff(v1, v2)
		if err == nil && (len(onlyA) != 1 || len(onlyB) != 1) {
			err = fmt.Errorf("diff sizes %d/%d, want 1/1", len(onlyA), len(onlyB))
		}
		return err
	})
	within(t, wait, "versioned query", func() error {
		res, err := s.Run(fmt.Sprintf("SELECT count(*) FROM VERSION %d OF CVD prot", v2))
		if err == nil && res.Rows[0][0].I != 3 {
			err = fmt.Errorf("count = %d, want 3", res.Rows[0][0].I)
		}
		return err
	})
	within(t, wait, "visibility checks", func() error {
		if got := d.LatestVersion(); got != v2 {
			return fmt.Errorf("latest version = %d while the commit is parked, want %d", got, v2)
		}
		if _, err := d.Checkout(v2 + 1); err == nil {
			return fmt.Errorf("parked version %d already checks out", v2+1)
		}
		res, err := s.Run("SELECT count(*) FROM CVD prot")
		if err == nil && res.Rows[0][0].I != 6 {
			err = fmt.Errorf("all-versions view has %d rows while the commit is parked, want 6", res.Rows[0][0].I)
		}
		return err
	})

	second := commit("second", 1, 6)
	select {
	case o := <-second:
		t.Fatalf("second commit returned (%d, %v) while the first was parked", o.v, o.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	o1, o2 := <-first, <-second
	if o1.err != nil || o2.err != nil {
		t.Fatalf("commits after release: %v, %v", o1.err, o2.err)
	}
	if o1.v != v2+1 || o2.v != v2+2 {
		t.Fatalf("commit versions = %d, %d; want %d, %d", o1.v, o2.v, v2+1, v2+2)
	}
	assertVersions(t, d, v1, v2, o1.v, o2.v)
}

// TestFailedInstallReplaysOnReopen makes an install fail after its record
// was logged: a commit slipped in between the append and the install takes
// the version id the plan predicted. The failed commit must return an
// error that WALStatus reports, the store must refuse further writes and
// checkpoints, and a reopen must install the logged record from the log.
func TestFailedInstallReplaysOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := openWALStore(t, dir, FsyncAlways)
	d, err := s.Init("prot", protCols(), InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCommit(t, d, nil, "base", 1, 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	s.loggedHook = func() {
		if calls.Add(1) == 1 {
			if _, err := d.cvd.Commit(context.Background(), []Row{{Int(7), String("r7")}}, []VersionID{v1}, "unlogged"); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := d.Commit([]Row{{Int(1), String("r1")}, {Int(3), String("r3")}}, []VersionID{v1}, "logged"); err == nil {
		t.Fatal("commit whose install lost its version id succeeded")
	}
	if s.WALStatus().AppendError == "" {
		t.Fatal("WALStatus reports no error after a failed install")
	}
	if _, err := d.Commit([]Row{{Int(4), String("r4")}}, []VersionID{v1}, "after"); err == nil {
		t.Fatal("commit after a failed install succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint after a failed install succeeded")
	}
	crash(s)

	r := openWALStore(t, dir, FsyncAlways)
	defer crash(r)
	rd, err := r.Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	assertVersions(t, rd, v1, v1+1)
	info, err := rd.Info(v1 + 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Message != "logged" {
		t.Fatalf("replayed version %d is %q, want the logged commit", v1+1, info.Message)
	}
	rows, err := rd.Checkout(v1 + 1)
	if err != nil || len(rows) != 2 {
		t.Fatalf("checkout of replayed version = %d rows, %v", len(rows), err)
	}
}
