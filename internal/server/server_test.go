package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	orpheusdb "orpheusdb"
)

// newTestServer starts an httptest server over a fresh in-memory store.
func newTestServer(t *testing.T) (*httptest.Server, *orpheusdb.Store) {
	t.Helper()
	store := orpheusdb.NewStore()
	ts := httptest.NewServer(New(store, nil))
	t.Cleanup(ts.Close)
	return ts, store
}

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode != http.StatusNoContent {
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, out
}

func initProtein(t *testing.T, base string) {
	t.Helper()
	status, body := doJSON(t, "POST", base+"/api/v1/datasets", map[string]any{
		"name": "prot",
		"columns": []map[string]string{
			{"name": "p1", "type": "integer"},
			{"name": "p2", "type": "integer"},
			{"name": "score", "type": "decimal"},
			{"name": "tag", "type": "string"},
		},
		"primaryKey": []string{"p1", "p2"},
	})
	if status != http.StatusCreated {
		t.Fatalf("init: status %d, body %v", status, body)
	}
}

func commitRows(t *testing.T, base string, rows [][]any, parents []int64, msg string) int64 {
	t.Helper()
	status, body := doJSON(t, "POST", base+"/api/v1/datasets/prot/commit", map[string]any{
		"rows": rows, "parents": parents, "message": msg,
	})
	if status != http.StatusCreated {
		t.Fatalf("commit: status %d, body %v", status, body)
	}
	v, err := body["version"].(json.Number).Int64()
	if err != nil {
		t.Fatalf("commit: bad version in %v", body)
	}
	return v
}

func TestDatasetLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)

	// Duplicate init conflicts.
	status, body := doJSON(t, "POST", ts.URL+"/api/v1/datasets", map[string]any{
		"name":    "prot",
		"columns": []map[string]string{{"name": "x", "type": "integer"}},
	})
	if status != http.StatusConflict {
		t.Fatalf("duplicate init: status %d, body %v", status, body)
	}

	v1 := commitRows(t, ts.URL, [][]any{
		{1, 1, 0.5, "a"},
		{1, 2, 1.25, "b"},
	}, nil, "first")
	if v1 != 1 {
		t.Fatalf("first commit: version %d, want 1", v1)
	}
	v2 := commitRows(t, ts.URL, [][]any{
		{1, 1, 0.5, "a"},
		{2, 2, nil, "c"},
	}, []int64{v1}, "second")

	// Checkout v2.
	status, body = doJSON(t, "GET", ts.URL+fmt.Sprintf("/api/v1/datasets/prot/checkout?versions=%d", v2), nil)
	if status != http.StatusOK {
		t.Fatalf("checkout: status %d, body %v", status, body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("checkout v2: %d rows, want 2", len(rows))
	}
	// The NULL score of row {2,2} must round-trip as JSON null.
	found := false
	for _, r := range rows {
		vals := r.([]any)
		if vals[0].(json.Number) == "2" && vals[2] == nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("checkout v2: NULL cell did not round-trip: %v", rows)
	}

	// Diff v1 vs v2.
	status, body = doJSON(t, "GET", ts.URL+fmt.Sprintf("/api/v1/datasets/prot/diff?a=%d&b=%d", v1, v2), nil)
	if status != http.StatusOK {
		t.Fatalf("diff: status %d", status)
	}
	if n := len(body["onlyA"].([]any)); n != 1 {
		t.Fatalf("diff onlyA: %d rows, want 1", n)
	}
	if n := len(body["onlyB"].([]any)); n != 1 {
		t.Fatalf("diff onlyB: %d rows, want 1", n)
	}

	// Version metadata and graph traversal.
	status, body = doJSON(t, "GET", ts.URL+fmt.Sprintf("/api/v1/datasets/prot/versions/%d", v2), nil)
	if status != http.StatusOK || body["message"] != "second" {
		t.Fatalf("version info: status %d, body %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+fmt.Sprintf("/api/v1/datasets/prot/versions/%d/ancestors", v2), nil)
	if status != http.StatusOK {
		t.Fatalf("ancestors: status %d", status)
	}
	if anc := body["ancestors"].([]any); len(anc) != 1 {
		t.Fatalf("ancestors of v2: %v, want [1]", anc)
	}

	// SQL over a version.
	status, body = doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]any{
		"sql": fmt.Sprintf("SELECT count(*) FROM VERSION %d OF CVD prot", v2),
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d, body %v", status, body)
	}
	qr := body["rows"].([]any)[0].([]any)
	if qr[0].(json.Number) != "2" {
		t.Fatalf("query count: %v, want 2", qr[0])
	}

	// Drop, then the dataset is gone.
	status, _ = doJSON(t, "DELETE", ts.URL+"/api/v1/datasets/prot", nil)
	if status != http.StatusNoContent {
		t.Fatalf("drop: status %d", status)
	}
	status, _ = doJSON(t, "GET", ts.URL+"/api/v1/datasets/prot", nil)
	if status != http.StatusNotFound {
		t.Fatalf("get after drop: status %d, want 404", status)
	}
}

func TestCommitWithSchemaEvolution(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)
	v1 := commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}}, nil, "first")

	// Commit under a wider schema (extra column).
	status, body := doJSON(t, "POST", ts.URL+"/api/v1/datasets/prot/commit", map[string]any{
		"columns": []map[string]string{
			{"name": "p1", "type": "integer"},
			{"name": "p2", "type": "integer"},
			{"name": "score", "type": "decimal"},
			{"name": "tag", "type": "string"},
			{"name": "flags", "type": "integer[]"},
		},
		"rows":    [][]any{{1, 1, 0.5, "a", []int64{3, 4}}},
		"parents": []int64{v1},
		"message": "wider",
	})
	if status != http.StatusCreated {
		t.Fatalf("schema commit: status %d, body %v", status, body)
	}
	v2, _ := body["version"].(json.Number).Int64()
	status, body = doJSON(t, "GET", ts.URL+fmt.Sprintf("/api/v1/datasets/prot/checkout?versions=%d", v2), nil)
	if status != http.StatusOK {
		t.Fatalf("checkout: status %d", status)
	}
	row := body["rows"].([]any)[0].([]any)
	arr, ok := row[len(row)-1].([]any)
	if !ok || len(arr) != 2 {
		t.Fatalf("integer[] cell did not round-trip: %v", row)
	}
}

func TestErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", "GET", "/api/v1/datasets/nope", nil, http.StatusNotFound},
		{"unknown version", "GET", "/api/v1/datasets/prot/checkout?versions=99", nil, http.StatusNotFound},
		{"bad version id", "GET", "/api/v1/datasets/prot/checkout?versions=x", nil, http.StatusBadRequest},
		{"missing versions", "GET", "/api/v1/datasets/prot/checkout", nil, http.StatusBadRequest},
		{"bad sql", "POST", "/api/v1/query", map[string]any{"sql": "SELEC nope"}, http.StatusBadRequest},
		{"empty sql", "POST", "/api/v1/query", map[string]any{"sql": " "}, http.StatusBadRequest},
		{"bad diff args", "GET", "/api/v1/datasets/prot/diff?a=1", nil, http.StatusBadRequest},
		{"init without columns", "POST", "/api/v1/datasets", map[string]any{"name": "x"}, http.StatusBadRequest},
		{"drop unknown", "DELETE", "/api/v1/datasets/nope", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		status, body := doJSON(t, c.method, ts.URL+c.path, c.body)
		if status != c.want {
			t.Errorf("%s: status %d, want %d (body %v)", c.name, status, c.want, body)
			continue
		}
		errObj, ok := body["error"].(map[string]any)
		if !ok || errObj["code"] == "" || errObj["message"] == "" {
			t.Errorf("%s: missing structured error body: %v", c.name, body)
		}
	}

	// Type mismatches in commit bodies are 400s with a pointed message.
	status, body := doJSON(t, "POST", ts.URL+"/api/v1/datasets/prot/commit", map[string]any{
		"rows": [][]any{{"one", 1, 0.5, "a"}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("type mismatch: status %d, body %v", status, body)
	}
}

func TestUsersAndHealth(t *testing.T) {
	ts, store := newTestServer(t)
	status, body := doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]any{"name": "alice"})
	if status != http.StatusCreated {
		t.Fatalf("create user: status %d, body %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/api/v1/users", nil)
	if status != http.StatusOK {
		t.Fatalf("list users: status %d", status)
	}
	users := body["users"].([]any)
	found := false
	for _, u := range users {
		if u == "alice" {
			found = true
		}
	}
	if !found {
		t.Fatalf("users: %v, want alice present", users)
	}
	// Registering a user must not hijack the server's active user.
	if got := store.WhoAmI(); got != "default" {
		t.Fatalf("active user changed to %q by POST /users", got)
	}

	status, body = doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: status %d, body %v", status, body)
	}
	status, _ = doJSON(t, "GET", ts.URL+"/api/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
}

// TestPersistenceThroughServer proves commits made over HTTP reach disk via
// the debounced save path and survive a reload.
func TestPersistenceThroughServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.odb")
	store, err := orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, nil))
	defer ts.Close()

	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}}, nil, "first")
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := re.Dataset("prot")
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	rows, err := d.Checkout(1)
	if err != nil || len(rows) != 1 {
		t.Fatalf("reload checkout: rows=%d err=%v", len(rows), err)
	}
}
