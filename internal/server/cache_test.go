package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// checkoutRaw issues a checkout GET with an optional If-None-Match validator
// and returns the status, the X-Orpheus-Version header, and the decoded body.
func checkoutRaw(t *testing.T, url, ifNoneMatch string) (int, string, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode == http.StatusOK {
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Orpheus-Version"), out
}

func TestCheckoutVersionTokenAnd304(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}, {2, 2, 0.9, "b"}}, nil, "v1")

	url := ts.URL + "/api/v1/datasets/prot/checkout?versions=1"
	status, token, body := checkoutRaw(t, url, "")
	if status != http.StatusOK || token == "" {
		t.Fatalf("checkout: status %d token %q", status, token)
	}
	if rows := body["rows"].([]any); len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}

	// Echoing the validator back yields 304 with no body.
	status, token2, _ := checkoutRaw(t, url, token)
	if status != http.StatusNotModified {
		t.Fatalf("conditional checkout: status %d, want 304", status)
	}
	if token2 != token {
		t.Fatalf("304 token %q != %q", token2, token)
	}

	// A commit adds a version and changes none: v1's validator stays valid.
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}, {3, 3, 0.1, "c"}}, []int64{1}, "v2")
	if status, token3, _ := checkoutRaw(t, url, token); status != http.StatusNotModified || token3 != token {
		t.Fatalf("post-commit conditional checkout: status %d token %q, want 304 with %q", status, token3, token)
	}

	// A schema commit that adds a column changes how v1 materializes (the
	// new column reads as NULL): full response, new token, new column.
	status, cbody := doJSON(t, "POST", ts.URL+"/api/v1/datasets/prot/commit", map[string]any{
		"columns": []map[string]string{
			{"name": "p1", "type": "integer"},
			{"name": "p2", "type": "integer"},
			{"name": "score", "type": "decimal"},
			{"name": "tag", "type": "string"},
			{"name": "note", "type": "string"},
		},
		"rows":    [][]any{{1, 1, 0.5, "a", "n"}},
		"parents": []int64{2},
		"message": "v3 adds a column",
	})
	if status != http.StatusCreated {
		t.Fatalf("schema commit: status %d, body %v", status, cbody)
	}
	status, token4, body := checkoutRaw(t, url, token)
	if status != http.StatusOK {
		t.Fatalf("post-schema-commit conditional checkout: status %d, want 200", status)
	}
	if token4 == token {
		t.Fatal("token did not change after a schema commit")
	}
	cols := body["columns"].([]any)
	if last := cols[len(cols)-1].(map[string]any); len(cols) != 5 || last["name"] != "note" {
		t.Fatalf("columns = %v, want the added column note last", cols)
	}
	rows := body["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if cells := r.([]any); len(cells) != 5 || cells[4] != nil {
			t.Fatalf("v1 row %v, want a NULL in the added column", cells)
		}
	}
}

// TestMultiVersionCheckoutToken pins the token format for multi-version
// checkouts: version ids join with "+", so the validator survives
// If-None-Match's comma-separated list syntax and 304s actually fire.
func TestMultiVersionCheckoutToken(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}}, nil, "v1")
	commitRows(t, ts.URL, [][]any{{2, 2, 0.9, "b"}}, []int64{1}, "v2")

	url := ts.URL + "/api/v1/datasets/prot/checkout?versions=1,2"
	status, token, _ := checkoutRaw(t, url, "")
	if status != http.StatusOK || strings.Contains(token, ",") {
		t.Fatalf("multi-version checkout: status %d token %q (must not contain a comma)", status, token)
	}
	if status, _, _ := checkoutRaw(t, url, token); status != http.StatusNotModified {
		t.Fatalf("multi-version conditional checkout: status %d, want 304", status)
	}
	// No validator — wildcard or an exact token fabricated from the
	// dataset's published generation — may turn a nonexistent version into
	// a 304: existence is checked before the conditional fast path.
	status, _, _ = checkoutRaw(t, ts.URL+"/api/v1/datasets/prot/checkout?versions=99", "*")
	if status != http.StatusNotFound {
		t.Fatalf("wildcard on missing version: status %d, want 404", status)
	}
	_, sum := doJSON(t, "GET", ts.URL+"/api/v1/datasets/prot", nil)
	gen := sum["cache"].(map[string]any)["generation"].(json.Number).String()
	forged := `"prot.v99.g` + gen + `"`
	status, _, _ = checkoutRaw(t, ts.URL+"/api/v1/datasets/prot/checkout?versions=99", forged)
	if status != http.StatusNotFound {
		t.Fatalf("forged token on missing version: status %d, want 404", status)
	}
}

func TestCacheStatusAndFlushEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}}, nil, "v1")

	url := ts.URL + "/api/v1/datasets/prot/checkout?versions=1"
	for i := 0; i < 3; i++ {
		if status, _, _ := checkoutRaw(t, url, ""); status != http.StatusOK {
			t.Fatalf("checkout %d failed", i)
		}
	}

	status, body := doJSON(t, "GET", ts.URL+"/api/v1/cache", nil)
	if status != http.StatusOK {
		t.Fatalf("cache status: %d", status)
	}
	hits, _ := body["hits"].(json.Number).Int64()
	entries, _ := body["entries"].(json.Number).Int64()
	if hits < 2 || entries < 1 {
		t.Fatalf("cache status = %v, want >=2 hits and >=1 entry", body)
	}

	// The dataset summary carries its share of the cache.
	status, body = doJSON(t, "GET", ts.URL+"/api/v1/datasets/prot", nil)
	if status != http.StatusOK {
		t.Fatalf("summary: %d", status)
	}
	cacheInfo, ok := body["cache"].(map[string]any)
	if !ok {
		t.Fatalf("summary has no cache field: %v", body)
	}
	if n, _ := cacheInfo["entries"].(json.Number).Int64(); n < 1 {
		t.Fatalf("summary cache entries = %d, want >= 1", n)
	}

	// Flush empties it.
	status, body = doJSON(t, "POST", ts.URL+"/api/v1/cache/flush", nil)
	if status != http.StatusOK {
		t.Fatalf("flush: %d", status)
	}
	if n, _ := body["entries"].(json.Number).Int64(); n != 0 {
		t.Fatalf("entries after flush = %d", n)
	}

	// Engine stats mirror the cache counters.
	status, body = doJSON(t, "GET", ts.URL+"/api/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if _, ok := body["cache_hits"]; !ok {
		t.Fatalf("stats missing cache_hits: %v", body)
	}
}
