package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	orpheusdb "orpheusdb"
)

// seedPartitioned builds a dataset with a linear commit chain. It names no
// model: every dataset is partitioned.
func seedPartitioned(t *testing.T, store *orpheusdb.Store, name string, versions int) {
	t.Helper()
	ds, err := store.Init(name, []orpheusdb.Column{
		{Name: "k", Type: orpheusdb.KindInt},
		{Name: "v", Type: orpheusdb.KindInt},
	}, orpheusdb.InitOptions{PrimaryKey: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []orpheusdb.Row
	var parents []orpheusdb.VersionID
	for i := 0; i < versions; i++ {
		for j := 0; j < 8; j++ {
			k := int64(i*8 + j)
			rows = append(rows, orpheusdb.Row{orpheusdb.Int(k), orpheusdb.Int(k * 2)})
		}
		v, err := ds.Commit(append([]orpheusdb.Row(nil), rows...), parents, "step")
		if err != nil {
			t.Fatal(err)
		}
		parents = []orpheusdb.VersionID{v}
	}
}

func TestPartitioningEndpoints(t *testing.T) {
	ts, store := newTestServer(t)
	seedPartitioned(t, store, "part", 16)

	// Status without an optimizer: layout present, optimizer not running.
	status, body := doJSON(t, "GET", ts.URL+"/api/v1/datasets/part/partitioning", nil)
	if status != http.StatusOK {
		t.Fatalf("GET partitioning: status %d, body %v", status, body)
	}
	layout := body["layout"].(map[string]any)
	if n := len(layout["partitions"].([]any)); n != 1 {
		t.Fatalf("expected 1 initial partition, got %d", n)
	}
	if running := body["optimizer"].(map[string]any)["running"].(bool); running {
		t.Fatal("optimizer reported running before start")
	}

	// Manual trigger without the optimizer is a client error.
	if status, _ := doJSON(t, "POST", ts.URL+"/api/v1/datasets/part/partitioning", nil); status != http.StatusBadRequest {
		t.Fatalf("POST without optimizer: status %d, want 400", status)
	}

	o, err := store.StartPartitionOptimizer(orpheusdb.PartitionOptimizerConfig{
		Mu:       orpheusdb.MuDisabled,
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	status, body = doJSON(t, "POST", ts.URL+"/api/v1/datasets/part/partitioning", nil)
	if status != http.StatusOK {
		t.Fatalf("POST partitioning: status %d, body %v", status, body)
	}
	if reason := body["reason"].(string); reason != "manual" {
		t.Fatalf("trigger reason = %q, want manual", reason)
	}
	if n, _ := body["batches"].(json.Number).Int64(); n == 0 {
		t.Fatal("trigger reported zero batches")
	}

	status, body = doJSON(t, "GET", ts.URL+"/api/v1/datasets/part/partitioning", nil)
	if status != http.StatusOK {
		t.Fatalf("GET after trigger: status %d", status)
	}
	opt := body["optimizer"].(map[string]any)
	if !opt["running"].(bool) {
		t.Fatal("optimizer should report running")
	}
	if m, _ := opt["migrations"].(json.Number).Int64(); m != 1 {
		t.Fatalf("migrations = %v, want 1", opt["migrations"])
	}
	if n := len(body["layout"].(map[string]any)["partitions"].([]any)); n < 2 {
		t.Fatalf("layout still has %d partition(s) after trigger", n)
	}

	// The stats endpoint mirrors the engine's partition counters.
	status, body = doJSON(t, "GET", ts.URL+"/api/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("GET stats: status %d", status)
	}
	if n, _ := body["partition_migrations"].(json.Number).Int64(); n != 1 {
		t.Fatalf("stats partition_migrations = %v, want 1", body["partition_migrations"])
	}

	// A second default-created dataset: its layout, a manual trigger and an
	// optimize all answer 200.
	seedPartitioned(t, store, "plain", 8)
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{"GET", "/partitioning", nil},
		{"POST", "/partitioning", nil},
		{"POST", "/optimize", map[string]any{"gamma": 2}},
	} {
		if status, body := doJSON(t, req.method, ts.URL+"/api/v1/datasets/plain"+req.path, req.body); status != http.StatusOK {
			t.Fatalf("%s %s on a default dataset: status %d, body %v", req.method, req.path, status, body)
		}
	}
}

// TestOptimizeEndpoint pins POST /optimize's two reply shapes, and that a
// "naive" field (an executor choice that no longer exists) is ignored like
// any unknown field.
func TestOptimizeEndpoint(t *testing.T) {
	ts, store := newTestServer(t)
	seedPartitioned(t, store, "part", 16)
	url := ts.URL + "/api/v1/datasets/part/optimize"

	status, body := doJSON(t, "POST", url, map[string]any{"gamma": 2, "naive": true})
	if status != http.StatusOK {
		t.Fatalf("POST optimize: status %d, body %v", status, body)
	}
	for _, k := range []string{"dataset", "delta", "partitions", "estStorage", "estCheckout", "solveMillis", "migrationMillis", "storageBreakdown"} {
		if _, ok := body[k]; !ok {
			t.Errorf("optimize reply lacks %q: %v", k, body)
		}
	}
	if n, _ := body["partitions"].(json.Number).Int64(); n < 2 {
		t.Fatalf("optimize left %d partitions", n)
	}

	status, body = doJSON(t, "POST", url, map[string]any{"gamma": 2, "mu": 1.05})
	if status != http.StatusOK {
		t.Fatalf("POST optimize with mu: status %d, body %v", status, body)
	}
	for _, k := range []string{"dataset", "migrated", "cavg", "bestCavg"} {
		if _, ok := body[k]; !ok {
			t.Errorf("maintenance reply lacks %q: %v", k, body)
		}
	}
	if migrated, _ := body["migrated"].(bool); migrated {
		t.Fatalf("layout drifted right after an optimize: %v", body)
	}
}
