package repl

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	orpheusdb "orpheusdb"
)

// Kill-point matrix for replication, extending the PR 3/7 crash-matrix
// style to the network: the stream (or the snapshot download) is cut at
// arbitrary byte offsets and the follower must converge to the primary's
// fingerprint anyway — by failing bootstrap cleanly, resuming the stream
// from its applied watermark, or re-bootstrapping after a 410.

// cutTransport injects byte-exact response-body cuts for URLs whose path
// contains match. One-shot by default; persistent keeps cutting until
// disarmed. cuts counts bodies actually wrapped.
type cutTransport struct {
	match string

	mu         sync.Mutex
	armed      bool
	persistent bool
	offset     int64

	cuts atomic.Int64
}

func (c *cutTransport) arm(offset int64, persistent bool) {
	c.mu.Lock()
	c.armed, c.persistent, c.offset = true, persistent, offset
	c.mu.Unlock()
}

func (c *cutTransport) disarm() {
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
}

func (c *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	c.mu.Lock()
	cut := c.armed && strings.Contains(req.URL.Path, c.match)
	offset := c.offset
	if cut && !c.persistent {
		c.armed = false
	}
	c.mu.Unlock()
	if cut {
		c.cuts.Add(1)
		resp.Body = &cutBody{rc: resp.Body, remain: offset}
	}
	return resp, err
}

// cutBody yields at most remain bytes, then fails like a dropped connection.
type cutBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, fmt.Errorf("injected connection cut")
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if b.remain <= 0 && err == nil {
		err = fmt.Errorf("injected connection cut")
	}
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

// TestKillPointSnapshotBootstrap cuts the snapshot download at a matrix of
// byte offsets: each cut must fail StartFollower cleanly, and a retry with
// the cut disarmed must converge.
func TestKillPointSnapshotBootstrap(t *testing.T) {
	primary, srv := newPrimary(t)
	d, err := primary.Init("kp", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 6, "seed")

	// Measure the snapshot to place cuts across its whole byte range.
	resp, err := http.Get(srv.URL + "/api/v1/wal/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(full) == 0 {
		t.Fatalf("snapshot download: %d bytes, err %v", len(full), err)
	}
	sz := int64(len(full))

	ct := &cutTransport{match: "/wal/snapshot"}
	client := &http.Client{Transport: ct}
	for _, off := range []int64{0, 1, sz / 4, sz / 2, sz - 1} {
		ct.arm(off, false)
		if _, err := StartFollower(FollowerConfig{Primary: srv.URL, Client: client, WaitMS: 250}); err == nil {
			t.Fatalf("cut at %d/%d bytes: StartFollower succeeded, want bootstrap failure", off, sz)
		}
		ct.disarm()
		f, err := StartFollower(FollowerConfig{Primary: srv.URL, Client: client, WaitMS: 250, ReconnectDelay: 25 * time.Millisecond})
		if err != nil {
			t.Fatalf("retry after cut at %d: %v", off, err)
		}
		waitCaughtUp(t, f, primary)
		assertConverged(t, primary, f.Store())
		f.Close()
	}
}

// TestKillPointStreamTail cuts the live stream at a matrix of byte offsets
// (mid-header, mid-frame, across frame boundaries) while the primary keeps
// committing; the follower must resume from its applied watermark and
// converge after every cut.
func TestKillPointStreamTail(t *testing.T) {
	primary, srv := newPrimary(t)
	d, err := primary.Init("kp", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 2, "seed")

	ct := &cutTransport{match: "/wal/stream"}
	f, err := StartFollower(FollowerConfig{
		Primary:        srv.URL,
		Client:         &http.Client{Transport: ct},
		WaitMS:         100,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, primary)

	// Offsets span 0 (cut before any byte) through several frames deep;
	// frames for these commits are ~100-200 bytes, so the matrix hits
	// mid-header, mid-body, and boundary positions.
	for i, off := range []int64{0, 1, 5, 13, 27, 55, 111, 200, 350} {
		before := ct.cuts.Load()
		ct.arm(off, true)
		commitN(t, d, 3, fmt.Sprintf("cut%d", i))
		waitFor(t, 10*time.Second, fmt.Sprintf("a cut at offset %d to trigger", off), func() bool {
			return ct.cuts.Load() > before
		})
		ct.disarm()
		waitCaughtUp(t, f, primary)
		assertConverged(t, primary, f.Store())
	}
	if f.Info().Reconnects == 0 {
		t.Fatal("stream was never cut hard enough to reconnect")
	}
}

// TestKillPointRebootstrapAfterTruncate starves a follower while the
// primary checkpoints past its position: the stream answers 410 and the
// follower must transparently re-bootstrap from a fresh snapshot.
func TestKillPointRebootstrapAfterTruncate(t *testing.T) {
	// Tiny segments so a checkpoint actually truncates history away.
	primary, srv := newPrimaryWAL(t, orpheusdb.WALConfig{Policy: orpheusdb.FsyncOff, SegmentBytes: 256})

	d, err := primary.Init("kp", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 3, "seed")

	ct := &cutTransport{match: "/wal/stream"}
	f, err := StartFollower(FollowerConfig{
		Primary:        srv.URL,
		Client:         &http.Client{Transport: ct},
		WaitMS:         100,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, primary)

	// Starve the stream completely (waiting for the in-flight window to
	// expire so the cut actually bites), push history past the follower,
	// and checkpoint so the records it needs are gone.
	ct.arm(0, true)
	before := ct.cuts.Load()
	waitFor(t, 10*time.Second, "the stream to be starved", func() bool {
		return ct.cuts.Load() > before
	})
	commitN(t, d, 10, "ahead")
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ct.disarm()

	waitFor(t, 10*time.Second, "a re-bootstrap", func() bool { return f.snapshots.Load() >= 2 })
	waitCaughtUp(t, f, primary)
	assertConverged(t, primary, f.Store())
}
