package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	orpheusdb "orpheusdb"
)

// newWALServer starts an httptest server over a WAL-backed persistent store.
func newWALServer(t *testing.T) (*httptest.Server, *orpheusdb.Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "srv.odb")
	store, err := orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnableWAL(orpheusdb.WALConfig{Policy: orpheusdb.FsyncOff}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, nil))
	t.Cleanup(ts.Close)
	return ts, store
}

func TestWALStatusEndpoint(t *testing.T) {
	ts, _ := newWALServer(t)
	initProtein(t, ts.URL)

	status, body := doJSON(t, "GET", ts.URL+"/api/v1/wal/status", nil)
	if status != http.StatusOK {
		t.Fatalf("wal/status = %d: %v", status, body)
	}
	if body["enabled"] != true {
		t.Fatalf("wal/status reports disabled: %v", body)
	}
	if body["policy"] != "off" {
		t.Fatalf("policy = %v, want off", body["policy"])
	}
	applied, _ := body["appliedLSN"].(interface{ Int64() (int64, error) })
	if applied == nil {
		t.Fatalf("appliedLSN missing: %v", body)
	}
	if n, _ := applied.Int64(); n == 0 {
		t.Fatalf("appliedLSN = 0 after init: %v", body)
	}
}

func TestWALCheckpointEndpoint(t *testing.T) {
	ts, _ := newWALServer(t)
	initProtein(t, ts.URL)

	status, body := doJSON(t, "POST", ts.URL+"/api/v1/wal/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("wal/checkpoint = %d: %v", status, body)
	}
	ckpt := body["checkpointLSN"].(interface{ Int64() (int64, error) })
	applied := body["appliedLSN"].(interface{ Int64() (int64, error) })
	c, _ := ckpt.Int64()
	a, _ := applied.Int64()
	if c == 0 || c != a {
		t.Fatalf("checkpointLSN = %d, appliedLSN = %d; want equal and nonzero", c, a)
	}
	n, _ := body["checkpoints"].(interface{ Int64() (int64, error) }).Int64()
	if n < 1 {
		t.Fatalf("checkpoints = %d, want >= 1", n)
	}
}

func TestHealthIncludesWAL(t *testing.T) {
	ts, _ := newWALServer(t)
	status, body := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, body)
	}
	wal, ok := body["wal"].(map[string]any)
	if !ok || wal["enabled"] != true {
		t.Fatalf("healthz wal block missing or disabled: %v", body)
	}
}

// TestDatasetListCleanOfErrors: a healthy store's listing must not carry the
// error fields, so their presence is a real signal.
func TestDatasetListCleanOfErrors(t *testing.T) {
	ts, _ := newWALServer(t)
	initProtein(t, ts.URL)
	status, body := doJSON(t, "GET", ts.URL+"/api/v1/datasets", nil)
	if status != http.StatusOK {
		t.Fatalf("datasets = %d", status)
	}
	if _, ok := body["saveError"]; ok {
		t.Fatalf("saveError on a healthy store: %v", body)
	}
	if _, ok := body["walError"]; ok {
		t.Fatalf("walError on a healthy store: %v", body)
	}
}
