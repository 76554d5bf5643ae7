package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/obs"
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parseProm parses the Prometheus text format strictly enough to catch
// malformed output: every line must be a comment, blank, or a sample of the
// form name{labels} value, and every sample's family must carry HELP and
// TYPE metadata.
func parseProm(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	helps := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helps[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.name = rest[:i]
			close := strings.LastIndexByte(rest, '}')
			if close < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			for _, pair := range splitLabels(rest[i+1 : close]) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				uq := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
				s.labels[k] = uq.Replace(v[1 : len(v)-1])
			}
			rest = strings.TrimSpace(rest[close+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			s.name, rest = fields[0], fields[1]
		}
		if !promNameRE.MatchString(s.name) {
			t.Fatalf("line %d: bad metric name %q", ln+1, s.name)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		s.value = v
		fam := familyOf(s.name)
		if _, ok := types[fam]; !ok {
			t.Fatalf("line %d: sample %q before TYPE for %q", ln+1, s.name, fam)
		}
		if _, ok := helps[fam]; !ok {
			t.Fatalf("line %d: sample %q before HELP for %q", ln+1, s.name, fam)
		}
		samples = append(samples, s)
	}
	return samples, types
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// familyOf strips histogram sample suffixes back to the family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelsKey renders labels minus `le` as a stable series key.
func labelsKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ";")
	}
	return b.String()
}

func scrape(t *testing.T, base string) (string, []promSample, map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("unexpected content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, string(body))
	return string(body), samples, types
}

func findSample(samples []promSample, name string, match map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return promSample{}, false
}

// TestMetricsExposition drives real traffic through the API, then checks the
// /metrics output parses, its histograms are internally consistent (buckets
// cumulative, +Inf bucket equal to _count), the expected families from every
// layer are present, and counters are monotonic across scrapes.
func TestMetricsExposition(t *testing.T) {
	ts, store := newTestServer(t)
	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}, {1, 2, 1.25, "b"}}, nil, "first")

	checkout := func() {
		resp, err := http.Get(ts.URL + "/api/v1/datasets/prot/checkout?versions=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkout: %d", resp.StatusCode)
		}
	}
	checkout() // miss
	checkout() // hit
	if code, _ := doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]any{
		"sql": "SELECT count(*) FROM VERSION 1 OF CVD prot",
	}); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	// One manual optimize, no optimizer running: the partition series move.
	seedPartitioned(t, store, "part", 16)
	if code, body := doJSON(t, "POST", ts.URL+"/api/v1/datasets/part/optimize", map[string]any{"gamma": 2}); code != http.StatusOK {
		t.Fatalf("optimize: %d %v", code, body)
	}

	_, samples, types := scrape(t, ts.URL)

	// Histogram self-consistency: per series, buckets cumulative in le order
	// and the +Inf bucket equals the _count sample.
	type seriesKey struct{ fam, key string }
	buckets := map[seriesKey][]promSample{}
	counts := map[seriesKey]float64{}
	sums := map[seriesKey]bool{}
	for _, s := range samples {
		fam := familyOf(s.name)
		if types[fam] != "histogram" {
			continue
		}
		k := seriesKey{fam, labelsKey(s.labels)}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			buckets[k] = append(buckets[k], s)
		case strings.HasSuffix(s.name, "_count"):
			counts[k] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			sums[k] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series found")
	}
	for k, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return parseLe(t, bs[i]) < parseLe(t, bs[j]) })
		prev := -1.0
		for _, b := range bs {
			if b.value < prev {
				t.Fatalf("%s{%s}: bucket counts not cumulative", k.fam, k.key)
			}
			prev = b.value
		}
		last := bs[len(bs)-1]
		if last.labels["le"] != "+Inf" {
			t.Fatalf("%s{%s}: missing +Inf bucket", k.fam, k.key)
		}
		if cnt, ok := counts[k]; !ok || cnt != last.value {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", k.fam, k.key, last.value, counts[k])
		}
		if !sums[k] {
			t.Fatalf("%s{%s}: missing _sum", k.fam, k.key)
		}
	}

	// Coverage: one family per instrumented layer.
	for _, want := range []struct {
		name   string
		labels map[string]string
	}{
		{"orpheus_http_request_seconds_count", map[string]string{"method": "GET", "route": "/api/v1/datasets/{name}/checkout"}},
		{"orpheus_http_requests_total", map[string]string{"method": "GET", "route": "/api/v1/datasets/{name}/checkout", "status": "200"}},
		{"orpheus_http_response_bytes_total", nil},
		{"orpheus_checkout_seconds_count", map[string]string{"result": "miss"}},
		{"orpheus_checkout_seconds_count", map[string]string{"result": "hit"}},
		{"orpheus_commit_seconds_count", nil},
		{"orpheus_merge_seconds_count", nil},
		{"orpheus_dataset_lock_wait_seconds_count", map[string]string{"mode": "read"}},
		{"orpheus_dataset_lock_wait_seconds_count", map[string]string{"mode": "write"}},
		{"orpheus_sql_parse_seconds_count", nil},
		{"orpheus_sql_execute_seconds_count", nil},
		{"orpheus_cache_hits_total", nil},
		{"orpheus_cache_misses_total", nil},
		{"orpheus_page_faults_total", nil},
		{"orpheus_page_evictions_total", nil},
		{"orpheus_partition_migrations_total", nil},
		{"orpheus_partition_batches_total", nil},
		{"orpheus_partition_rows_moved_total", nil},
		{"orpheus_partition_migrate_seconds_count", nil},
		{"orpheus_wal_enabled", nil},
		{"orpheus_engine_rows_scanned_total", nil},
		{"orpheus_datasets", nil},
	} {
		s, ok := findSample(samples, want.name, want.labels)
		if !ok {
			t.Fatalf("missing sample %s %v", want.name, want.labels)
		}
		// The traffic above must actually have moved the core series.
		switch want.name {
		case "orpheus_checkout_seconds_count", "orpheus_commit_seconds_count",
			"orpheus_dataset_lock_wait_seconds_count",
			"orpheus_sql_parse_seconds_count", "orpheus_sql_execute_seconds_count",
			"orpheus_partition_migrations_total", "orpheus_partition_batches_total",
			"orpheus_partition_rows_moved_total", "orpheus_partition_migrate_seconds_count":
			if s.value < 1 {
				t.Fatalf("%s %v = %v, want >= 1", want.name, want.labels, s.value)
			}
		}
	}

	// Monotonic counters: re-drive traffic, re-scrape, and every counter
	// series present in the first scrape must not have decreased.
	first := map[string]float64{}
	for _, s := range samples {
		fam := familyOf(s.name)
		if types[fam] == "counter" || strings.HasSuffix(s.name, "_count") || strings.HasSuffix(s.name, "_bucket") {
			first[s.name+"|"+labelsKeyWithLe(s.labels)] = s.value
		}
	}
	checkout()
	_, again, _ := scrape(t, ts.URL)
	seen := map[string]float64{}
	for _, s := range again {
		seen[s.name+"|"+labelsKeyWithLe(s.labels)] = s.value
	}
	for key, v0 := range first {
		v1, ok := seen[key]
		if !ok {
			t.Fatalf("series %s disappeared between scrapes", key)
		}
		if v1 < v0 {
			t.Fatalf("counter %s went backwards: %v -> %v", key, v0, v1)
		}
	}
	if key := "orpheus_http_requests_total|method=GET;route=/metrics;status=200;"; seen[key] <= first[key] {
		t.Fatalf("scrape counter did not advance: %v -> %v", first[key], seen[key])
	}
}

func parseLe(t *testing.T, s promSample) float64 {
	t.Helper()
	le := s.labels["le"]
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q", le)
	}
	return v
}

func labelsKeyWithLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ";")
	}
	return b.String()
}

// TestSlowTraceCaptured forces every request over the slow threshold and
// checks a checkout trace lands in /debug/traces with the nested span tree
// the core layer emits: checkout.cache over bitmap.resolve + record.fetch.
func TestSlowTraceCaptured(t *testing.T) {
	ts, store := newTestServer(t)
	store.Tracer().SetSlowThreshold(0)
	initProtein(t, ts.URL)
	commitRows(t, ts.URL, [][]any{{1, 1, 0.5, "a"}, {1, 2, 1.25, "b"}}, nil, "first")

	resp, err := http.Get(ts.URL + "/api/v1/datasets/prot/checkout?versions=1")
	if err != nil {
		t.Fatal(err)
	}
	bodyBytes, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Orpheus-Trace")
	if traceID == "" {
		t.Fatal("checkout response missing X-Orpheus-Trace")
	}

	tresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(tresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SlowTotal == 0 {
		t.Fatal("no slow traces recorded under a zero threshold")
	}
	var trace *obs.TraceData
	for i := range snap.Slow {
		if snap.Slow[i].ID == traceID {
			trace = &snap.Slow[i]
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace %s not in slow ring (%d slow traces)", traceID, len(snap.Slow))
	}
	if want := "GET /api/v1/datasets/{name}/checkout"; trace.Name != want {
		t.Fatalf("trace name = %q, want %q", trace.Name, want)
	}
	cache := findSpan(trace.Root, "checkout.cache")
	if cache == nil {
		t.Fatalf("trace missing checkout.cache span: %+v", trace.Root)
	}
	if cache.Attrs["hit"] != "false" {
		t.Fatalf("first checkout should be a cache miss, attrs %v", cache.Attrs)
	}
	for _, child := range []string{"bitmap.resolve", "record.fetch"} {
		found := false
		for _, c := range cache.Children {
			if c.Name == child {
				found = true
			}
		}
		if !found {
			t.Fatalf("checkout.cache missing child %q (children %+v)", child, cache.Children)
		}
	}

	// The response encode and the request decode are spans of their own,
	// directly under the request's root.
	childOfRoot := func(tr *obs.TraceData, name string) *obs.SpanData {
		for i := range tr.Root.Children {
			if tr.Root.Children[i].Name == name {
				return &tr.Root.Children[i]
			}
		}
		t.Fatalf("trace %q: no %s span under the root: %+v", tr.Name, name, tr.Root)
		return nil
	}
	encode := childOfRoot(trace, "checkout.encode")
	if encode.Attrs["rows"] != "2" || encode.Attrs["bytes"] != strconv.FormatInt(bodyBytes, 10) {
		t.Fatalf("checkout.encode attrs %v, want rows=2 bytes=%d", encode.Attrs, bodyBytes)
	}
	var commit *obs.TraceData
	for i := range snap.Slow {
		if snap.Slow[i].Name == "POST /api/v1/datasets/{name}/commit" {
			commit = &snap.Slow[i]
		}
	}
	if commit == nil {
		t.Fatal("commit trace not in slow ring")
	}
	if decode := childOfRoot(commit, "commit.decode"); decode.Attrs["rows"] != "2" || decode.Attrs["bytes"] == "" {
		t.Fatalf("commit.decode attrs %v, want rows=2 and a byte count", decode.Attrs)
	}
}

// findSpan depth-first searches a span tree by name.
func findSpan(s obs.SpanData, name string) *obs.SpanData {
	if s.Name == name {
		return &s
	}
	for i := range s.Children {
		if found := findSpan(s.Children[i], name); found != nil {
			return found
		}
	}
	return nil
}

// TestSecondServerOnSameStorePanics documents the one-Server-per-Store rule:
// the second registration of the HTTP metric families must panic rather than
// silently double-count.
func TestSecondServerOnSameStorePanics(t *testing.T) {
	store := orpheusdb.NewStore()
	_ = New(store, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second New on the same store should panic on duplicate metrics")
		}
	}()
	_ = New(store, nil)
}

// TestAccessLogRecordsStatusAndBytes exercises the slog access log: the line
// must carry the real status code and the response body size, not just
// method and path.
func TestAccessLogRecordsStatusAndBytes(t *testing.T) {
	var buf bytes.Buffer
	store := orpheusdb.NewStore()
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(New(store, logger))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/datasets/nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	line := buf.String()
	if !strings.Contains(line, "status=404") {
		t.Fatalf("access log missing status: %q", line)
	}
	if !strings.Contains(line, "bytes="+strconv.Itoa(len(body))) {
		t.Fatalf("access log missing body size %d: %q", len(body), line)
	}
	if !strings.Contains(line, "route=/api/v1/datasets/{name}") {
		t.Fatalf("access log missing route: %q", line)
	}
	if !strings.Contains(line, "trace=") {
		t.Fatalf("access log missing trace id: %q", line)
	}
}
