package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/server"
)

// newPrimary builds a WAL-enabled primary store and its HTTP server.
func newPrimary(t *testing.T) (*orpheusdb.Store, *httptest.Server) {
	t.Helper()
	return newPrimaryWAL(t, orpheusdb.WALConfig{Policy: orpheusdb.FsyncOff})
}

// newPrimaryWAL is newPrimary with a say over the WAL (its directory is set
// here). The teardown runs before the test's temporary directory is removed
// and leaves nothing behind that still writes into it: the server goes
// first, so no stream handler reads a WAL that is being closed, and the
// store is closed, which cancels its debounced save — one that fired into
// the directory while it was being deleted failed the test with "directory
// not empty".
func newPrimaryWAL(t *testing.T, cfg orpheusdb.WALConfig) (*orpheusdb.Store, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	st, err := orpheusdb.OpenStoreWithOptions(filepath.Join(dir, "primary.odb"), orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	cfg.Dir = filepath.Join(dir, "wal")
	if err := st.EnableWAL(cfg); err != nil {
		t.Fatalf("enable wal: %v", err)
	}
	srv := httptest.NewServer(server.New(st, nil))
	t.Cleanup(func() {
		srv.Close()
		st.Close()
		st.CloseWAL()
	})
	return st, srv
}

func testColumns() []orpheusdb.Column {
	return []orpheusdb.Column{
		{Name: "id", Type: orpheusdb.KindInt},
		{Name: "val", Type: orpheusdb.KindString},
	}
}

// commitN appends n single-row versions to dataset d, each chaining off the
// latest, and returns the new version ids.
func commitN(t *testing.T, d *orpheusdb.Dataset, n int, tag string) []orpheusdb.VersionID {
	t.Helper()
	var out []orpheusdb.VersionID
	for i := 0; i < n; i++ {
		var parents []orpheusdb.VersionID
		if latest := d.LatestVersion(); latest != 0 {
			parents = []orpheusdb.VersionID{latest}
		}
		row := orpheusdb.Row{orpheusdb.Int(int64(len(out) + 1000*len(tag))), orpheusdb.String(fmt.Sprintf("%s-%d", tag, i))}
		v, err := d.Commit([]orpheusdb.Row{row}, parents, fmt.Sprintf("commit %s %d", tag, i))
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		out = append(out, v)
	}
	return out
}

// fingerprint renders a version's checkout as an order-independent string.
func fingerprint(t *testing.T, st *orpheusdb.Store, dataset string, v orpheusdb.VersionID) string {
	t.Helper()
	d, err := st.Dataset(dataset)
	if err != nil {
		t.Fatalf("dataset %s: %v", dataset, err)
	}
	rows, err := d.Checkout(v)
	if err != nil {
		t.Fatalf("checkout %s@%d: %v", dataset, v, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitCaughtUp waits until the follower's applied LSN reaches the primary's.
func waitCaughtUp(t *testing.T, f *Follower, primary *orpheusdb.Store) {
	t.Helper()
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		return f.Store().WALStatus().AppliedLSN >= primary.WALStatus().AppliedLSN
	})
}

// assertConverged checks every version of every dataset fingerprints
// identically on both stores, and the LSN watermarks match.
func assertConverged(t *testing.T, primary, follower *orpheusdb.Store) {
	t.Helper()
	if p, f := primary.WALStatus().AppliedLSN, follower.WALStatus().AppliedLSN; p != f {
		t.Fatalf("LSN watermarks diverge: primary %d, follower %d", p, f)
	}
	names := primary.List()
	fnames := follower.List()
	if fmt.Sprintf("%v", names) != fmt.Sprintf("%v", fnames) {
		t.Fatalf("dataset lists diverge: primary %v, follower %v", names, fnames)
	}
	for _, name := range names {
		pd, err := primary.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := follower.Dataset(name)
		if err != nil {
			t.Fatalf("follower missing dataset %s: %v", name, err)
		}
		pv, fv := pd.Versions(), fd.Versions()
		if fmt.Sprintf("%v", pv) != fmt.Sprintf("%v", fv) {
			t.Fatalf("dataset %s version lists diverge: %v vs %v", name, pv, fv)
		}
		for _, v := range pv {
			if pf, ff := fingerprint(t, primary, name, v), fingerprint(t, follower, name, v); pf != ff {
				t.Fatalf("dataset %s version %d fingerprints diverge:\nprimary:\n%s\nfollower:\n%s", name, v, pf, ff)
			}
		}
	}
}

func startFollower(t *testing.T, primaryURL string) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerConfig{Primary: primaryURL, WaitMS: 250, ReconnectDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("start follower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFollowerConvergence covers both replication paths: state already in
// the bootstrap snapshot, and state arriving live over the stream (including
// the dataset init itself when the snapshot was empty).
func TestFollowerConvergence(t *testing.T) {
	primary, srv := newPrimary(t)
	d, err := primary.Init("prot", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 3, "pre") // snapshot-borne state

	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)
	assertConverged(t, primary, f.Store())

	commitN(t, d, 4, "post") // stream-borne state
	if _, err := d.CreateBranch("dev", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Init("second", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, primary)
	assertConverged(t, primary, f.Store())

	// The branch must have replicated too.
	fd, err := f.Store().Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Branch("dev"); err != nil {
		t.Fatalf("branch did not replicate: %v", err)
	}

	info := f.Info()
	if info.Role != "follower" || info.State != "streaming" {
		t.Fatalf("info = %+v, want streaming follower", info)
	}
	if info.LastError != "" {
		t.Fatalf("follower reports error: %s", info.LastError)
	}
	if info.LagRecords != 0 {
		t.Fatalf("caught-up follower reports lag %d", info.LagRecords)
	}
}

// TestFollowerKeepsVersionCacheEntries: a follower applies the primary's
// cache rule to every replicated record. A commit drops only the
// all-versions view, and branch create/advance records drop nothing, so a
// cached v1 checkout stays resident and its validator stays valid.
func TestFollowerKeepsVersionCacheEntries(t *testing.T) {
	primary, srv := newPrimary(t)
	d, err := primary.Init("prot", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := commitN(t, d, 1, "pre")[0]

	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)
	fd, err := f.Store().Dataset("prot")
	if err != nil {
		t.Fatal(err)
	}
	_, want, gen, err := fd.CheckoutWithTokenCtx(context.Background(), v1)
	if err != nil {
		t.Fatal(err)
	}

	v2 := commitN(t, d, 1, "post")[0]
	if _, err := d.CreateBranch("dev", v1); err != nil {
		t.Fatal(err)
	}
	if res, err := d.Merge("dev", fmt.Sprint(v2), orpheusdb.MergeFail, "advance dev"); err != nil || !res.FastForward {
		t.Fatalf("fast-forward dev: %+v, %v", res, err)
	}
	waitCaughtUp(t, f, primary)
	if _, err := fd.Branch("dev"); err != nil {
		t.Fatalf("branch did not replicate: %v", err)
	}

	if n := f.Store().DatasetCacheStats("prot").Entries; n != 1 {
		t.Fatalf("follower entries after commit and branch records = %d, want v1's entry resident", n)
	}
	hits := f.Store().CacheStats().Hits
	_, got, gen2, err := fd.CheckoutWithTokenCtx(context.Background(), v1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Store().CacheStats().Hits != hits+1 {
		t.Fatal("follower's v1 checkout was not served from cache")
	}
	if gen2 != gen {
		t.Fatalf("follower's v1 generation moved %d -> %d across a commit and branch records", gen, gen2)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower's v1 rows changed: %v -> %v", want, got)
	}
}

// TestFollowerReadOnly: local writes — Go API and HTTP — are rejected, HTTP
// with a 403/read_only body; reads keep working.
func TestFollowerReadOnly(t *testing.T) {
	primary, srv := newPrimary(t)
	d, _ := primary.Init("ds", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	vids := commitN(t, d, 1, "x")
	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)

	fd, err := f.Store().Dataset("ds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Commit([]orpheusdb.Row{{orpheusdb.Int(9), orpheusdb.String("no")}}, vids, "nope"); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("commit on follower: err=%v, want read-only", err)
	}

	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()
	body := bytes.NewReader([]byte(`{"rows":[[5,"no"]],"message":"nope"}`))
	resp, err := http.Post(fsrv.URL+"/api/v1/datasets/ds/commit", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower commit: status %d, want 403", resp.StatusCode)
	}
	var errBody struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody.Error.Code != "read_only" {
		t.Fatalf("error code = %q (decode err %v), want read_only", errBody.Error.Code, err)
	}

	// Reads still fine.
	cresp, err := http.Get(fsrv.URL + "/api/v1/datasets/ds/checkout?versions=" + fmt.Sprint(int64(vids[0])))
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("follower checkout: status %d", cresp.StatusCode)
	}
	if cresp.Header.Get("X-Orpheus-Version") == "" {
		t.Fatal("follower checkout missing ETag validator")
	}
}

// TestFollowerHealthAndMetrics: lag surfaces on /healthz and orpheus_repl_*
// families are exposed on /metrics.
func TestFollowerHealthAndMetrics(t *testing.T) {
	primary, srv := newPrimary(t)
	d, _ := primary.Init("m", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	commitN(t, d, 2, "m")
	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)

	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	resp, err := http.Get(fsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string                    `json:"status"`
		Replication orpheusdb.ReplicationInfo `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Replication.Role != "follower" {
		t.Fatalf("healthz replication = %+v, want follower role", health.Replication)
	}
	if health.Replication.AppliedLSN == 0 || health.Replication.AppliedLSN != health.Replication.PrimaryLSN {
		t.Fatalf("healthz watermarks = %+v, want equal non-zero LSNs", health.Replication)
	}

	mresp, err := http.Get(fsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"orpheus_repl_applied_lsn", "orpheus_repl_primary_lsn",
		"orpheus_repl_lag_records", "orpheus_repl_lag_seconds",
		"orpheus_repl_records_applied_total", "orpheus_repl_snapshots_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestRouterRouting: reads land on the follower, writes on the primary, and
// the router's own /healthz reports the roster.
func TestRouterRouting(t *testing.T) {
	primary, srv := newPrimary(t)
	d, _ := primary.Init("r", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	commitN(t, d, 2, "r")
	f := startFollower(t, srv.URL)
	waitCaughtUp(t, f, primary)
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	rt, err := NewRouter(RouterConfig{
		Primary:        srv.URL,
		Followers:      []string{fsrv.URL},
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rsrv := httptest.NewServer(rt)
	defer rsrv.Close()

	// A read: must succeed and be counted as routed to the follower.
	resp, err := http.Get(rsrv.URL + "/api/v1/datasets/r/checkout?versions=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed checkout: status %d", resp.StatusCode)
	}
	if got := rt.followers[0].requests.Load(); got != 1 {
		t.Fatalf("follower served %d requests, want 1", got)
	}

	// A SELECT query: read, also follower-eligible.
	q := bytes.NewReader([]byte(`{"sql":"SELECT count(*) FROM VERSION 1 OF CVD r"}`))
	resp, err = http.Post(rsrv.URL+"/api/v1/query", "application/json", q)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query: status %d", resp.StatusCode)
	}
	if got := rt.followers[0].requests.Load(); got != 2 {
		t.Fatalf("follower served %d requests, want 2", got)
	}

	// A write: must reach the primary and take effect there.
	before := d.LatestVersion()
	body := bytes.NewReader([]byte(fmt.Sprintf(`{"rows":[[77,"w"]],"parents":[%d],"message":"via router"}`, before)))
	resp, err = http.Post(rsrv.URL+"/api/v1/datasets/r/commit", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed commit: status %d", resp.StatusCode)
	}
	if d.LatestVersion() == before {
		t.Fatal("routed commit did not reach the primary")
	}

	hresp, err := http.Get(rsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var status struct {
		Role         string          `json:"role"`
		Followers    []backendStatus `json:"followers"`
		RoutedReads  uint64          `json:"routedReads"`
		RoutedWrites uint64          `json:"routedWrites"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Role != "router" || len(status.Followers) != 1 {
		t.Fatalf("router status = %+v", status)
	}
	if status.RoutedReads < 2 || status.RoutedWrites < 1 {
		t.Fatalf("routed counts = %d reads / %d writes, want >=2 / >=1", status.RoutedReads, status.RoutedWrites)
	}
}

// gateTransport holds every request whose path ends in suffix until release
// is closed, and says on arrived that one is waiting.
type gateTransport struct {
	suffix  string
	arrived chan struct{}
	release chan struct{}
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, g.suffix) {
		select {
		case g.arrived <- struct{}{}:
		default:
		}
		<-g.release
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestVerifyAgainstBusyPrimary: the primary commits between the follower's
// first catch-up and the dataset listing its one-time Verify fetches. The
// extra versions are the primary's progress, not a divergence, and must not
// stick in LastError — the failure TestFollowerConvergence hit whenever the
// commits after its first waitCaughtUp won that race.
func TestVerifyAgainstBusyPrimary(t *testing.T) {
	primary, srv := newPrimary(t)
	d, err := primary.Init("prot", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 3, "pre")

	gate := &gateTransport{suffix: "/api/v1/datasets", arrived: make(chan struct{}, 1), release: make(chan struct{})}
	f, err := StartFollower(FollowerConfig{
		Primary:        srv.URL,
		Client:         &http.Client{Transport: gate},
		WaitMS:         100,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	select {
	case <-gate.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never ran its first-catch-up Verify")
	}
	commitN(t, d, 4, "post")
	if _, err := primary.Init("second", testColumns(), orpheusdb.InitOptions{PrimaryKey: []string{"id"}}); err != nil {
		t.Fatal(err)
	}
	close(gate.release)

	waitCaughtUp(t, f, primary)
	assertConverged(t, primary, f.Store())
	if info := f.Info(); info.LastError != "" {
		t.Fatalf("follower reports a divergence that is not one: %s", info.LastError)
	}
	// Quiescent now: the exact form of the check applies and passes.
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify at equal LSNs: %v", err)
	}
}

// TestCheckVersions: what Verify accepts and what it reports.
func TestCheckVersions(t *testing.T) {
	local := []orpheusdb.VersionID{1, 2, 3}
	for _, c := range []struct {
		name    string
		primary []int64
		exact   bool
		ok      bool
	}{
		{"equal", []int64{1, 2, 3}, true, true},
		{"primary ahead", []int64{1, 2, 3, 4, 5}, false, true},
		{"primary ahead at the same LSN", []int64{1, 2, 3, 4}, true, false},
		{"follower ahead", []int64{1, 2}, false, false},
		{"different history", []int64{1, 7, 3, 4}, false, false},
	} {
		if err := checkVersions("ds", local, c.primary, c.exact); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
