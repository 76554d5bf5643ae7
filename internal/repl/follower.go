// Package repl implements WAL-shipping replication: a Follower bootstraps a
// read-only Store from a primary's snapshot, tails its WAL stream, and
// applies each record through the store's crash-recovery replay path (with
// its version-id and membership-bitmap divergence verification); a Router
// fans reads across healthy followers while proxying writes to the primary.
//
// The follower state machine is snapshot-then-tail:
//
//	bootstrapping --> streaming <--> disconnected
//	                      |
//	                   promoted        (explicit, drains first)
//
// Records arrive in the WAL's on-disk frame format (wal.ReadFrameFrom) in
// dense LSN order; a 410 from the stream endpoint means the primary
// checkpointed past the follower's position, and the follower transparently
// re-bootstraps from a fresh snapshot, swapping in a whole new Store (reads
// see either the old consistent state or the new one, never a mix).
package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/server"
	"orpheusdb/internal/wal"
)

// errGone reports that the primary no longer retains the records the
// follower needs: re-bootstrap from a snapshot.
var errGone = errors.New("repl: primary truncated past our position")

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. "http://127.0.0.1:7400").
	Primary string
	// Client is the HTTP client used for snapshot and stream requests.
	// Streaming requests long-poll, so its Timeout must be zero (the
	// default client is fine).
	Client *http.Client
	// ReconnectDelay is the back-off after a failed stream attempt
	// (default 500ms; reconnection after a clean window end is immediate).
	ReconnectDelay time.Duration
	// WaitMS overrides the stream's long-poll window (0 = server default).
	// Tests use small values to keep reconnect cycles fast.
	WaitMS int
	// PromoteWALDir, when set, is attached as the store's WAL on promotion,
	// so the promoted node is durable and can itself ship its log to new
	// followers. Without it a promoted node accepts writes memory-only.
	PromoteWALDir string
	// Logger, if non-nil, receives state transitions and the follower's
	// HTTP access log.
	Logger *slog.Logger
}

// replica is one bootstrapped generation of the follower: a store plus the
// HTTP server built around it. Re-bootstrapping swaps the whole pair, since
// a server registers its metrics on its store's registry exactly once.
type replica struct {
	store   *orpheusdb.Store
	handler http.Handler
}

// Follower replicates a primary into a local read-only Store and serves it.
// It implements orpheusdb.Replication, so the follower's own /healthz shows
// role, state, and lag, and POST /api/v1/promote flips it writable.
type Follower struct {
	cfg FollowerConfig

	// cur is the live replica; swapped atomically on re-bootstrap.
	cur atomic.Pointer[replica]

	mu       sync.Mutex
	state    string
	lastErr  string
	promoted bool
	verified bool
	cancel   context.CancelFunc
	done     chan struct{}

	primaryLSN     atomic.Uint64
	recordsApplied atomic.Uint64
	bytesApplied   atomic.Uint64
	reconnects     atomic.Uint64
	snapshots      atomic.Uint64
	// lastCaughtUp is when the applied watermark last reached the
	// primary's; lag_seconds measures from here while behind.
	lastCaughtUp atomic.Int64
}

// StartFollower bootstraps from the primary (synchronously — when it
// returns, the follower serves a consistent snapshot) and starts the tail
// loop. Stop with Close, or flip writable with Promote.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("repl: follower needs a primary URL")
	}
	cfg.Primary = strings.TrimRight(cfg.Primary, "/")
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = 500 * time.Millisecond
	}
	f := &Follower{cfg: cfg, state: "bootstrapping"}
	f.lastCaughtUp.Store(time.Now().UnixNano())
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.run(ctx)
	return f, nil
}

// Store returns the follower's current store (read-only until promotion).
// The pointer changes on re-bootstrap; callers needing a consistent view
// across calls should grab it once.
func (f *Follower) Store() *orpheusdb.Store { return f.cur.Load().store }

// Handler returns a stable handler that always serves the current replica,
// surviving re-bootstrap swaps.
func (f *Follower) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().handler.ServeHTTP(w, r)
	})
}

// bootstrap fetches a snapshot and swaps in a fresh replica built from it.
func (f *Follower) bootstrap() error {
	f.setState("bootstrapping")
	resp, err := f.cfg.Client.Get(f.cfg.Primary + "/api/v1/wal/snapshot")
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: primary answered %s", resp.Status)
	}
	snap, err := engine.DecodeSnapshot(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	st, err := orpheusdb.NewStoreFromSnapshot(snap)
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	st.SetReadOnly(true)
	st.SetReplication(f)
	f.registerMetrics(st)
	h := server.New(st, f.cfg.Logger)
	f.cur.Store(&replica{store: st, handler: h})
	f.snapshots.Add(1)
	f.updatePrimaryLSN(snap.WalLSN)
	if f.cfg.Logger != nil {
		f.cfg.Logger.Info("repl bootstrap", "primary", f.cfg.Primary, "lsn", snap.WalLSN)
	}
	return nil
}

// registerMetrics exports the follower's progress on the (new) store's
// registry. Re-bootstrap builds a fresh registry, so follower-local HTTP
// metrics reset with it; the counters below read shared atomics and survive.
func (f *Follower) registerMetrics(st *orpheusdb.Store) {
	reg := st.Metrics()
	reg.GaugeFunc("orpheus_repl_applied_lsn",
		"Last WAL record applied from the primary.",
		func() float64 { return float64(st.WALStatus().AppliedLSN) })
	reg.GaugeFunc("orpheus_repl_primary_lsn",
		"Primary's latest known WAL LSN.",
		func() float64 { return float64(f.primaryLSN.Load()) })
	reg.GaugeFunc("orpheus_repl_lag_records",
		"Records the follower is behind the primary.",
		func() float64 { return float64(f.Info().LagRecords) })
	reg.GaugeFunc("orpheus_repl_lag_seconds",
		"Seconds since the follower was last caught up with the primary.",
		func() float64 { return f.Info().LagSeconds })
	reg.CounterFunc("orpheus_repl_records_applied_total",
		"WAL records applied from the primary's stream.",
		func() float64 { return float64(f.recordsApplied.Load()) })
	reg.CounterFunc("orpheus_repl_bytes_applied_total",
		"WAL frame bytes applied from the primary's stream.",
		func() float64 { return float64(f.bytesApplied.Load()) })
	reg.CounterFunc("orpheus_repl_reconnects_total",
		"Stream reconnections (clean window ends included).",
		func() float64 { return float64(f.reconnects.Load()) })
	reg.CounterFunc("orpheus_repl_snapshots_total",
		"Bootstrap snapshots downloaded (>1 means re-bootstraps).",
		func() float64 { return float64(f.snapshots.Load()) })
}

// run is the tail loop: stream, apply, reconnect; re-bootstrap on 410.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil {
		err := f.streamOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		switch {
		case errors.Is(err, errGone):
			f.setError(err)
			if berr := f.bootstrap(); berr != nil {
				f.setError(berr)
				f.sleep(ctx, f.cfg.ReconnectDelay)
			}
		case err != nil:
			f.setError(err)
			f.setState("disconnected")
			f.sleep(ctx, f.cfg.ReconnectDelay)
		default:
			// Clean window end: reconnect immediately.
		}
		f.reconnects.Add(1)
	}
}

func (f *Follower) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// streamOnce runs one stream request to completion: connect at the applied
// watermark, apply every frame, return on window end (nil), stream error, or
// errGone (410).
func (f *Follower) streamOnce(ctx context.Context) error {
	st := f.Store()
	from := st.WALStatus().AppliedLSN
	url := f.cfg.Primary + "/api/v1/wal/stream?from_lsn=" + strconv.FormatUint(from, 10)
	if f.cfg.WaitMS > 0 {
		url += "&wait_ms=" + strconv.Itoa(f.cfg.WaitMS)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return errGone
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: stream: primary answered %s", resp.Status)
	}
	if raw := resp.Header.Get("X-Orpheus-WAL-Next-LSN"); raw != "" {
		if n, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
			f.updatePrimaryLSN(n)
		}
	}
	f.setState("streaming")
	f.clearError()
	f.checkCaughtUp(st)
	for {
		lsn, rec, n, err := wal.ReadFrameFrom(resp.Body)
		if err == io.EOF {
			return nil // clean window end
		}
		if err != nil {
			return fmt.Errorf("repl: stream: %w", err)
		}
		if err := st.ApplyReplicated(lsn, rec); err != nil {
			if strings.Contains(err.Error(), "gap") {
				// We missed records (e.g. a re-bootstrap raced a stream):
				// a fresh snapshot resolves it.
				return errGone
			}
			return err
		}
		f.recordsApplied.Add(1)
		f.bytesApplied.Add(uint64(n))
		f.updatePrimaryLSN(lsn)
		f.checkCaughtUp(st)
	}
}

// checkCaughtUp refreshes the caught-up timestamp and, on the first catch-up
// after bootstrap, runs the membership-divergence verification against the
// primary.
func (f *Follower) checkCaughtUp(st *orpheusdb.Store) {
	if st.WALStatus().AppliedLSN < f.primaryLSN.Load() {
		return
	}
	f.lastCaughtUp.Store(time.Now().UnixNano())
	f.mu.Lock()
	need := !f.verified
	f.verified = true
	f.mu.Unlock()
	if need {
		if err := f.Verify(); err != nil {
			f.setError(err)
		}
	}
}

// Verify cross-checks the follower against the primary's dataset listing.
// Each applied commit already verified its version id and membership bitmap
// record by record (the store's replay divergence checks), so this is the
// catalog-level complement run after catch-up.
//
// The primary does not stop committing for it. The listing describes the
// primary at some LSN between the follower's applied watermark (a follower is
// never ahead) and the LSN the primary reports right after, so what can be
// demanded is: every local version list is a prefix of the primary's, and —
// only when that later LSN is still the applied one, which pins the listing
// to it — the lists are equal and no dataset is missing. Anything stricter
// reports the primary's progress as a divergence. It reads the local store
// at one watermark, so it must not run beside the apply loop; the tail loop
// calls it between records.
func (f *Follower) Verify() error {
	st := f.Store()
	applied := st.WALStatus().AppliedLSN
	var listing struct {
		Datasets []struct {
			Name     string  `json:"name"`
			Versions []int64 `json:"versions"`
		} `json:"datasets"`
	}
	if err := f.getJSON("/api/v1/datasets", &listing); err != nil {
		return err
	}
	var after struct {
		AppliedLSN uint64 `json:"appliedLSN"`
	}
	if err := f.getJSON("/api/v1/wal/status", &after); err != nil {
		return err
	}
	exact := after.AppliedLSN == applied
	for _, ds := range listing.Datasets {
		d, err := st.Dataset(ds.Name)
		if err != nil {
			if !exact {
				continue // created past our watermark; its init record is on the way
			}
			return fmt.Errorf("repl: verify: dataset %q missing locally: %w", ds.Name, err)
		}
		if err := checkVersions(ds.Name, d.Versions(), ds.Versions, exact); err != nil {
			return err
		}
	}
	return nil
}

// checkVersions holds a local version list against the primary's: a prefix
// of it, and all of it when exact.
func checkVersions(name string, local []orpheusdb.VersionID, primary []int64, exact bool) error {
	if len(local) > len(primary) || (exact && len(local) != len(primary)) {
		return fmt.Errorf("repl: verify: dataset %q has %d local versions, primary has %d",
			name, len(local), len(primary))
	}
	for i, v := range local {
		if int64(v) != primary[i] {
			return fmt.Errorf("repl: verify: dataset %q version %d is %d locally, %d on primary",
				name, i, v, primary[i])
		}
	}
	return nil
}

// getJSON decodes the primary's 200 answer to GET path into dst.
func (f *Follower) getJSON(path string, dst any) error {
	resp, err := f.cfg.Client.Get(f.cfg.Primary + path)
	if err != nil {
		return fmt.Errorf("repl: verify: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: verify: primary answered %s to %s", resp.Status, path)
	}
	if err := decodeJSON(resp.Body, dst); err != nil {
		return fmt.Errorf("repl: verify: %s: %w", path, err)
	}
	return nil
}

// Info implements orpheusdb.Replication.
func (f *Follower) Info() orpheusdb.ReplicationInfo {
	st := f.Store()
	applied := st.WALStatus().AppliedLSN
	primary := f.primaryLSN.Load()
	if primary < applied {
		primary = applied
	}
	f.mu.Lock()
	state, lastErr, promoted := f.state, f.lastErr, f.promoted
	f.mu.Unlock()
	info := orpheusdb.ReplicationInfo{
		Role:       "follower",
		Primary:    f.cfg.Primary,
		State:      state,
		AppliedLSN: applied,
		PrimaryLSN: primary,
		LagRecords: primary - applied,
		Reconnects: f.reconnects.Load(),
		Snapshots:  f.snapshots.Load(),
		LastError:  lastErr,
	}
	if promoted {
		info.Role = "promoted"
	}
	if info.LagRecords > 0 && state != "promoted" {
		info.LagSeconds = time.Since(time.Unix(0, f.lastCaughtUp.Load())).Seconds()
	}
	return info
}

// Promote implements orpheusdb.Replication: stop tailing, drain whatever the
// primary still has (best-effort — the primary may be dead, which is the
// point of failover), optionally attach a WAL, and flip the store writable.
// Idempotent; concurrent callers all observe the flip.
func (f *Follower) Promote() error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil
	}
	f.promoted = true
	cancel := f.cancel
	f.mu.Unlock()
	cancel()
	<-f.done
	st := f.Store()
	// Final drain: short take-what's-there requests until no progress. A
	// dead primary fails the first request and we promote with what we have.
	for i := 0; i < 32; i++ {
		if n, err := f.drainOnce(st); err != nil || n == 0 {
			break
		}
	}
	if f.cfg.PromoteWALDir != "" {
		if err := st.EnableWAL(orpheusdb.WALConfig{Dir: f.cfg.PromoteWALDir}); err != nil {
			f.setError(err)
		}
	}
	st.SetReadOnly(false)
	f.setState("promoted")
	f.clearError()
	if f.cfg.Logger != nil {
		f.cfg.Logger.Info("repl promoted", "appliedLSN", st.WALStatus().AppliedLSN)
	}
	return nil
}

// drainOnce fetches one wait_ms=0 stream window and applies it, returning
// the number of records applied.
func (f *Follower) drainOnce(st *orpheusdb.Store) (int, error) {
	from := st.WALStatus().AppliedLSN
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(f.cfg.Primary + "/api/v1/wal/stream?from_lsn=" +
		strconv.FormatUint(from, 10) + "&wait_ms=0")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("repl: drain: primary answered %s", resp.Status)
	}
	applied := 0
	for {
		lsn, rec, n, err := wal.ReadFrameFrom(resp.Body)
		if err != nil {
			return applied, nil // EOF or a cut frame: take what we got
		}
		if aerr := st.ApplyReplicated(lsn, rec); aerr != nil {
			return applied, aerr
		}
		f.recordsApplied.Add(1)
		f.bytesApplied.Add(uint64(n))
		f.updatePrimaryLSN(lsn)
		applied++
	}
}

// Close stops the tail loop without promoting. The store stays read-only and
// keeps serving its last applied state.
func (f *Follower) Close() error {
	f.mu.Lock()
	cancel := f.cancel
	f.mu.Unlock()
	cancel()
	<-f.done
	return nil
}

func (f *Follower) updatePrimaryLSN(lsn uint64) {
	for {
		cur := f.primaryLSN.Load()
		if lsn <= cur || f.primaryLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

func (f *Follower) setState(state string) {
	f.mu.Lock()
	changed := f.state != state
	f.state = state
	f.mu.Unlock()
	if changed && f.cfg.Logger != nil {
		f.cfg.Logger.Info("repl state", "state", state)
	}
}

func (f *Follower) setError(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

func (f *Follower) clearError() {
	f.mu.Lock()
	f.lastErr = ""
	f.mu.Unlock()
}
