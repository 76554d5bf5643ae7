// Package server exposes a Store as a concurrent HTTP/JSON versioning
// service — the "versioning as a service" access layer the paper assumes a
// deployment of OrpheusDB provides. It is built entirely on net/http; every
// endpoint speaks JSON and maps failures onto structured error bodies.
//
// Routes (all under /api/v1 unless noted):
//
//	GET    /healthz                                   liveness + last async save error + optimizer health
//	GET    /metrics                                   Prometheus text exposition (store registry)
//	GET    /debug/traces                              recent + slow request traces (?min_ms=&op=)
//	GET    /api/v1/metrics/history                    retained metrics time-series (?name=&since=)
//	GET    /api/v1/stats                              engine I/O counters
//	GET    /api/v1/datasets                           list CVDs
//	POST   /api/v1/datasets                           init a CVD
//	GET    /api/v1/datasets/{name}                    dataset summary
//	DELETE /api/v1/datasets/{name}                    drop
//	POST   /api/v1/datasets/{name}/commit             commit rows (optionally with a new schema)
//	GET    /api/v1/datasets/{name}/checkout?versions= materialize version(s)
//	GET    /api/v1/datasets/{name}/diff?a=&b=         diff two versions
//	GET    /api/v1/datasets/{name}/heat               access-heat table (?top=)
//	GET    /api/v1/datasets/{name}/versions           version graph with metadata
//	GET    /api/v1/datasets/{name}/versions/{vid}     one version's metadata
//	GET    /api/v1/datasets/{name}/versions/{vid}/ancestors
//	GET    /api/v1/datasets/{name}/versions/{vid}/descendants
//	GET    /api/v1/datasets/{name}/branches           list branches (head, lineage size)
//	POST   /api/v1/datasets/{name}/branches           create a branch {name, at}
//	DELETE /api/v1/datasets/{name}/branches/{branch}  delete a branch
//	POST   /api/v1/datasets/{name}/merge              three-way merge {ours, theirs, policy, message}
//	POST   /api/v1/datasets/{name}/optimize           run LYRESPLIT / maintenance
//	GET    /api/v1/datasets/{name}/partitioning       live partition layout + optimizer status
//	POST   /api/v1/datasets/{name}/partitioning       trigger a batched repartitioning now
//	POST   /api/v1/query                              SQL with VERSION ... OF CVD
//	GET    /api/v1/users                              list users
//	POST   /api/v1/users                              register a user
//	GET    /api/v1/wal/status                         durability status (WAL, checkpoints, errors)
//	POST   /api/v1/wal/checkpoint                     force a checkpoint + log truncation
//	GET    /api/v1/wal/snapshot                       replication bootstrap snapshot (gob; LSN in header)
//	GET    /api/v1/wal/stream?from_lsn=               WAL shipping stream for followers (framed records)
//	POST   /api/v1/promote                            flip a follower writable (failover)
//	GET    /api/v1/cache                              checkout-cache status (budget, bytes, hit/miss/eviction counters)
//	POST   /api/v1/cache/flush                        drop every cached materialization
//
// Checkout responses carry an ETag-style X-Orpheus-Version header (also set
// as ETag): a validator over (dataset, versions, cache generation) that a
// client may echo back via If-None-Match (or X-Orpheus-Version) to get a
// 304 Not Modified instead of a re-materialized body.
//
// The Store's own locking makes every handler safe under concurrency:
// commits on one dataset proceed in parallel with checkouts on another, and
// persistence is debounced off the request path by the Store.
//
// Every request runs under a trace: the server opens a root span named after
// the matched route, hands the traced context to the handler (whose checkout,
// commit, merge, and SQL phases contribute nested spans), answers with the
// trace id in X-Orpheus-Trace, and records per-route latency and status
// counts in the store's metrics registry — served right back on GET /metrics.
package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/obs"
)

// Server is the HTTP face of one Store.
type Server struct {
	store *orpheusdb.Store
	mux   *http.ServeMux
	log   *slog.Logger

	// HTTP-layer metrics, registered on the store's registry so one scrape
	// covers both the service and the store beneath it.
	reqSeconds *obs.HistogramVec // latency by (method, route)
	reqTotal   *obs.CounterVec   // count by (method, route, status)
	respBytes  *obs.Counter      // cumulative response body bytes

	// repl is the primary-side WAL shipping telemetry (see repl.go).
	repl replMetrics
}

// New builds a Server around store. logger may be nil to disable request
// logging. New registers the HTTP metric families on store's registry, so
// build at most one Server per Store.
func New(store *orpheusdb.Store, logger *slog.Logger) *Server {
	reg := store.Metrics()
	s := &Server{
		store: store,
		mux:   http.NewServeMux(),
		log:   logger,
		reqSeconds: reg.HistogramVec("orpheus_http_request_seconds",
			"HTTP request latency by method and matched route.",
			obs.LatencyBuckets, "method", "route"),
		reqTotal: reg.CounterVec("orpheus_http_requests_total",
			"HTTP requests by method, matched route, and status code.",
			"method", "route", "status"),
		respBytes: reg.Counter("orpheus_http_response_bytes_total",
			"Cumulative HTTP response body bytes written."),
		repl: newReplMetrics(reg),
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.store.Metrics().Handler())
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /api/v1/datasets", s.handleInitDataset)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /api/v1/datasets/{name}", s.handleDropDataset)
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/commit", s.handleCommit)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/checkout", s.handleCheckout)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/diff", s.handleDiff)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/heat", s.handleHeat)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/versions", s.handleVersions)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/versions/{vid}", s.handleVersionInfo)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/versions/{vid}/ancestors", s.handleAncestors)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/versions/{vid}/descendants", s.handleDescendants)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/branches", s.handleListBranches)
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/branches", s.handleCreateBranch)
	s.mux.HandleFunc("DELETE /api/v1/datasets/{name}/branches/{branch}", s.handleDeleteBranch)
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/merge", s.handleMerge)
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /api/v1/datasets/{name}/partitioning", s.handlePartitioning)
	s.mux.HandleFunc("POST /api/v1/datasets/{name}/partitioning", s.handleRepartition)
	s.mux.HandleFunc("POST /api/v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /api/v1/users", s.handleListUsers)
	s.mux.HandleFunc("POST /api/v1/users", s.handleCreateUser)
	s.mux.HandleFunc("GET /api/v1/wal/status", s.handleWALStatus)
	s.mux.HandleFunc("POST /api/v1/wal/checkpoint", s.handleWALCheckpoint)
	s.mux.HandleFunc("GET /api/v1/wal/snapshot", s.handleWALSnapshot)
	s.mux.HandleFunc("GET /api/v1/wal/stream", s.handleWALStream)
	s.mux.HandleFunc("POST /api/v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /api/v1/cache", s.handleCacheStatus)
	s.mux.HandleFunc("POST /api/v1/cache/flush", s.handleCacheFlush)
}

// statusRecorder wraps a ResponseWriter to capture the status code and body
// byte count for the access log and the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (rec *statusRecorder) WriteHeader(code int) {
	if !rec.wrote {
		rec.status = code
		rec.wrote = true
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	rec.wrote = true // implicit 200 on first Write without WriteHeader
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Flush keeps streaming responses working through the wrapper.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route returns the mux pattern the request will dispatch to, method prefix
// stripped (the method is its own metric label). Unrouted requests — 404s and
// 405s — collapse into one "none" series instead of minting a series per
// probed path.
func (s *Server) route(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return "none"
	}
	if _, rest, ok := strings.Cut(pattern, " "); ok {
		return rest
	}
	return pattern
}

// ServeHTTP implements http.Handler. Each request is dispatched under a root
// trace span named "METHOD route" (the trace id is echoed in X-Orpheus-Trace),
// its status and response size are captured through a wrapped writer, and its
// latency and status land in the per-route histograms and counters. With a
// logger configured, one structured access-log line is emitted per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := s.route(r)
	ctx, span := s.store.Tracer().StartTrace(r.Context(), r.Method+" "+route)
	traceID := obs.TraceID(ctx)
	if traceID != "" {
		w.Header().Set("X-Orpheus-Trace", traceID)
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
	elapsed := time.Since(start)
	span.SetAttr("status", strconv.Itoa(rec.status))
	span.End()
	s.reqSeconds.With(r.Method, route).ObserveDuration(elapsed)
	s.reqTotal.With(r.Method, route, strconv.Itoa(rec.status)).Inc()
	s.respBytes.Add(rec.bytes)
	if s.log != nil {
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur", elapsed.Round(time.Microsecond),
			"trace", traceID,
		)
	}
}

// handleTraces serves the tracer's ring buffers: recent completed traces and
// traces that crossed the slow-operation threshold, newest first, each with
// its nested span tree. ?min_ms= keeps only traces at least that long;
// ?op= keeps only traces whose root name contains the substring
// (case-insensitive) — so "?op=checkout&min_ms=50" isolates slow checkouts.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Tracer().Snapshot()
	q := r.URL.Query()
	if raw := q.Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			writeError(w, badRequest(fmt.Sprintf("bad min_ms %q (want a non-negative number)", raw)))
			return
		}
		minNanos := int64(ms * float64(time.Millisecond))
		keep := func(t obs.TraceData) bool { return t.DurationNanos >= minNanos }
		snap.Recent = filterTraces(snap.Recent, keep)
		snap.Slow = filterTraces(snap.Slow, keep)
	}
	if op := q.Get("op"); op != "" {
		needle := strings.ToLower(op)
		keep := func(t obs.TraceData) bool { return strings.Contains(strings.ToLower(t.Name), needle) }
		snap.Recent = filterTraces(snap.Recent, keep)
		snap.Slow = filterTraces(snap.Slow, keep)
	}
	writeJSON(w, http.StatusOK, snap)
}

// filterTraces keeps the traces matching keep, preserving newest-first order.
// The input slices are Snapshot's own copies, so filtering in place is safe.
func filterTraces(in []obs.TraceData, keep func(obs.TraceData) bool) []obs.TraceData {
	out := in[:0]
	for _, t := range in {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// maxBodyBytes caps a request body; a larger one is refused with 413.
const maxBodyBytes = 64 << 20

// decodeBody parses a JSON request body of at most maxBodyBytes with numeric
// fidelity preserved (json.Number).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return badRequest("invalid JSON body: " + err.Error())
	}
	return nil
}

func pathVersion(r *http.Request) (orpheusdb.VersionID, error) {
	n, err := strconv.Atoi(r.PathValue("vid"))
	if err != nil {
		return 0, badRequest(fmt.Sprintf("bad version id %q", r.PathValue("vid")))
	}
	return orpheusdb.VersionID(n), nil
}

// queryVersions parses a comma-separated versions= parameter.
func queryVersions(r *http.Request, param string) ([]orpheusdb.VersionID, error) {
	raw := r.URL.Query().Get(param)
	if raw == "" {
		return nil, badRequest("missing ?" + param + "= parameter")
	}
	var out []orpheusdb.VersionID
	for _, part := range strings.Split(raw, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, badRequest(fmt.Sprintf("bad version id %q", part))
		}
		out = append(out, orpheusdb.VersionID(n))
	}
	return out, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok"}
	if err := s.store.SaveErr(); err != nil {
		resp["status"] = "degraded"
		resp["save_error"] = err.Error()
	}
	// Durability summary: a WAL that stopped accepting appends degrades the
	// service even though requests still succeed from memory.
	wal := s.store.WALStatus()
	resp["wal"] = wal
	if wal.AppendError != "" {
		resp["status"] = "degraded"
	}
	// Background optimizer: a sweep that keeps failing must not hide behind a
	// green liveness check, so its last error degrades the service too.
	if o := s.store.PartitionOptimizer(); o != nil {
		oh := o.Health()
		resp["optimizer"] = oh
		if oh.LastError != "" {
			resp["status"] = "degraded"
		}
	}
	// Follower role and lag: operators (and the read router) watch lag here,
	// and a broken stream must degrade the follower even though reads still
	// succeed from its last applied state.
	if repl := s.store.Replication(); repl != nil {
		info := repl.Info()
		resp["replication"] = info
		if info.LastError != "" {
			resp["status"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWALStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.WALStatus())
}

// handleWALCheckpoint forces a synchronous checkpoint: snapshot the store,
// then truncate the log segments the snapshot made obsolete.
func (s *Server) handleWALCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Checkpoint(); err != nil {
		writeError(w, fmt.Errorf("checkpoint: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, s.store.WALStatus())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.DB().Stats().Snapshot()
	writeJSON(w, http.StatusOK, map[string]int64{
		"seq_pages":       snap.SeqPages,
		"rand_pages":      snap.RandPages,
		"rows_scanned":    snap.RowsScanned,
		"index_probes":    snap.IndexProbes,
		"hash_builds":     snap.HashBuilds,
		"cache_hits":      snap.CacheHits,
		"cache_misses":    snap.CacheMisses,
		"cache_evictions": snap.CacheEvictions,
		"branch_creates":  snap.BranchCreates,
		"merges":          snap.Merges,
		"merge_conflicts": snap.MergeConflicts,

		"partition_migrations": snap.PartitionMigrations,
		"partition_batches":    snap.PartitionBatches,
		"partition_rows_moved": snap.PartitionRowsMoved,
	})
}

// handleCacheStatus reports the checkout cache: budget, resident bytes and
// entries, and cumulative hit/miss/eviction/invalidation counters.
func (s *Server) handleCacheStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.CacheStats())
}

// handleCacheFlush drops every cached materialization (entries rebuild on
// demand) and reports the post-flush state.
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	s.store.FlushCache()
	writeJSON(w, http.StatusOK, s.store.CacheStats())
}

type datasetSummary struct {
	Name       string       `json:"name"`
	Model      string       `json:"model"`
	Columns    []columnJSON `json:"columns"`
	PrimaryKey []string     `json:"primaryKey"`
	Versions   []int64      `json:"versions"`
	Latest     int64        `json:"latest"`
	// Branches lists the dataset's named branches with their heads.
	Branches []branchJSON `json:"branches"`
	Storage  int64        `json:"storageBytes"`
	// StorageBreakdown splits Storage into compressed-membership bytes
	// (rlist/vlist bitmaps) and record-data bytes.
	StorageBreakdown orpheusdb.StorageBreakdown `json:"storageBreakdown"`
	// Cache is the dataset's share of the checkout cache: resident entries
	// and bytes, plus the invalidation generation backing version tokens.
	Cache orpheusdb.DatasetCacheStats `json:"cache"`
}

func (s *Server) summarize(name string) (*datasetSummary, error) {
	d, err := s.store.Dataset(name)
	if err != nil {
		return nil, err
	}
	pk := d.PrimaryKey()
	if pk == nil {
		pk = []string{}
	}
	breakdown := d.StorageBreakdown()
	branches := d.Branches()
	bjs := make([]branchJSON, 0, len(branches))
	for _, b := range branches {
		bjs = append(bjs, branchToJSON(b))
	}
	return &datasetSummary{
		Name:             d.Name(),
		Model:            string(d.Model()),
		Columns:          encodeColumns(d.Columns()),
		PrimaryKey:       pk,
		Versions:         int64IDs(d.Versions()),
		Latest:           int64(d.LatestVersion()),
		Branches:         bjs,
		Storage:          breakdown.TotalBytes,
		StorageBreakdown: breakdown,
		Cache:            s.store.DatasetCacheStats(name),
	}, nil
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.store.List()
	out := make([]*datasetSummary, 0, len(names))
	for _, name := range names {
		sum, err := s.summarize(name)
		if err != nil {
			// A dataset dropped by a concurrent client between List
			// and summarize just disappears from the listing, as does one
			// stored under a data model the store no longer serves.
			if classify(err).Status == http.StatusNotFound || errors.Is(err, orpheusdb.ErrUnservedModel) {
				continue
			}
			writeError(w, err)
			return
		}
		out = append(out, sum)
	}
	resp := map[string]any{"datasets": out}
	// Surface persistence failures where clients actually look: a dataset
	// listing that silently reflects an unpersistable store is a trap for
	// callers who never poll SaveErr.
	if err := s.store.SaveErr(); err != nil {
		resp["saveError"] = err.Error()
	}
	if wal := s.store.WALStatus(); wal.AppendError != "" {
		resp["walError"] = wal.AppendError
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInitDataset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name       string       `json:"name"`
		Columns    []columnJSON `json:"columns"`
		PrimaryKey []string     `json:"primaryKey"`
		Model      string       `json:"model"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" || len(req.Columns) == 0 {
		writeError(w, badRequest("name and columns are required"))
		return
	}
	cols, err := decodeColumns(req.Columns)
	if err != nil {
		writeError(w, badRequest(err.Error()))
		return
	}
	opts := orpheusdb.InitOptions{PrimaryKey: req.PrimaryKey}
	if req.Model != "" {
		opts.Model = orpheusdb.ModelKind(req.Model)
	}
	if _, err := s.store.Init(req.Name, cols, opts); err != nil {
		writeError(w, err)
		return
	}
	sum, err := s.summarize(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sum)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	sum, err := s.summarize(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Drop(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// commitRequest is the body of POST .../commit. Rows stays raw: scanRows
// types each cell by its column, so nothing is boxed in between.
type commitRequest struct {
	Columns []columnJSON    `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
	Parents []int64         `json:"parents"`
	Message string          `json:"message"`
}

// decodeCommit reads a commit body and scans its rows under the schema the
// body carries or, without one, the dataset's. The "commit.decode" span
// covers reading and validating the body and scanning the rows.
func decodeCommit(w http.ResponseWriter, r *http.Request, d *orpheusdb.Dataset) (req commitRequest, cols []orpheusdb.Column, rows []orpheusdb.Row, err error) {
	_, span := obs.StartSpan(r.Context(), "commit.decode")
	defer func() {
		span.SetAttr("rows", strconv.Itoa(len(rows)))
		span.SetAttr("bytes", strconv.Itoa(len(req.Rows)))
		span.End()
	}()
	if err := decodeBody(w, r, &req); err != nil {
		return req, nil, nil, err
	}
	cols = d.Columns()
	if len(req.Columns) > 0 {
		if cols, err = decodeColumns(req.Columns); err != nil {
			return req, nil, nil, badRequest(err.Error())
		}
	}
	if rows, err = scanRows(req.Rows, cols); err != nil {
		return req, nil, nil, badRequest(err.Error())
	}
	return req, cols, rows, nil
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	req, cols, rows, err := decodeCommit(w, r, d)
	if err != nil {
		writeError(w, err)
		return
	}
	var vid orpheusdb.VersionID
	if len(req.Columns) > 0 {
		vid, err = d.CommitWithSchema(r.Context(), cols, rows, versionIDs(req.Parents), req.Message)
	} else {
		vid, err = d.CommitCtx(r.Context(), rows, versionIDs(req.Parents), req.Message)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"dataset": d.Name(),
		"version": int64(vid),
	})
}

// versionToken builds the ETag-style validator for a checkout response:
// stable for a (dataset, versions) pair until a mutation advances the
// dataset's cache generation — a schema change, a drop/re-init or a flush,
// never a commit or merge, since committed versions do not change. Version ids are joined with "+", never ",",
// so the token survives If-None-Match's comma-separated list syntax intact.
func versionToken(dataset string, vids []orpheusdb.VersionID, gen uint64) string {
	parts := make([]string, len(vids))
	for i, v := range vids {
		parts[i] = strconv.FormatInt(int64(v), 10)
	}
	return fmt.Sprintf("%q", dataset+".v"+strings.Join(parts, "+")+".g"+strconv.FormatUint(gen, 10))
}

// tokenMatches reports whether an If-None-Match style header (a
// comma-separated validator list, possibly W/-prefixed) names token. The
// RFC's "*" wildcard is deliberately not honored: it would turn requests
// for nonexistent versions into 304s instead of not_found errors.
func tokenMatches(header, token string) bool {
	// Whole-header comparison first: the common case is a client echoing
	// one token back, and it keeps validators working even for dataset
	// names that themselves contain a comma (which the naive split below
	// would cut apart).
	if strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(header), "W/")) == token {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == token {
			return true
		}
	}
	return false
}

func (s *Server) handleCheckout(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	vids, err := queryVersions(r, "versions")
	if err != nil {
		writeError(w, err)
		return
	}
	// Conditional request: if the client's validator still matches the
	// dataset's current generation, nothing it holds can be stale — answer
	// 304 without materializing anything. The versions must still exist:
	// a fabricated token for a missing version should get the same
	// not_found the uncached path produces, not a 304.
	if match := cmp.Or(r.Header.Get("If-None-Match"), r.Header.Get("X-Orpheus-Version")); match != "" {
		for _, vid := range vids {
			if _, err := d.Info(vid); err != nil {
				writeError(w, err)
				return
			}
		}
		token := versionToken(d.Name(), vids, d.CacheGeneration())
		if tokenMatches(match, token) {
			w.Header().Set("X-Orpheus-Version", token)
			w.Header().Set("ETag", token)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	cols, rows, gen, err := d.CheckoutWithTokenCtx(r.Context(), vids...)
	if err != nil {
		writeError(w, err)
		return
	}
	token := versionToken(d.Name(), vids, gen)
	w.Header().Set("X-Orpheus-Version", token)
	w.Header().Set("ETag", token)
	// Encoding runs after the store has released the dataset's read lock and
	// streams from the shared, immutable rows, so a slow client holds neither
	// the lock nor a copy of the version.
	_, span := obs.StartSpan(r.Context(), "checkout.encode")
	n, _ := writeCheckout(w, r, d.Name(), vids, cols, rows) // a failed write means the client is gone
	span.SetAttr("rows", strconv.Itoa(len(rows)))
	span.SetAttr("bytes", strconv.FormatInt(n, 10))
	span.End()
}

// writeCheckout streams a checkout body and returns the bytes written.
func writeCheckout(w http.ResponseWriter, r *http.Request, dataset string, vids []orpheusdb.VersionID, cols []orpheusdb.Column, rows []orpheusdb.Row) (int64, error) {
	e := newRowStream(w, r)
	e.buf = append(e.buf, `{"columns":`...)
	e.buf = appendColumns(e.buf, cols)
	e.buf = append(e.buf, `,"dataset":`...)
	e.buf = appendString(e.buf, dataset)
	e.buf = append(e.buf, `,"rows":`...)
	e.rows(rows)
	e.buf = append(e.buf, `,"versions":`...)
	e.buf = appendInts(e.buf, vids)
	e.buf = append(e.buf, "}\n"...)
	return e.finish()
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	a, errA := strconv.Atoi(q.Get("a"))
	b, errB := strconv.Atoi(q.Get("b"))
	if errA != nil || errB != nil {
		writeError(w, badRequest("diff needs integer ?a= and ?b= versions"))
		return
	}
	cols, onlyA, onlyB, err := d.DiffWithColumns(orpheusdb.VersionID(a), orpheusdb.VersionID(b))
	if err != nil {
		writeError(w, err)
		return
	}
	e := newRowStream(w, r)
	e.buf = append(e.buf, `{"a":`...)
	e.buf = strconv.AppendInt(e.buf, int64(a), 10)
	e.buf = append(e.buf, `,"b":`...)
	e.buf = strconv.AppendInt(e.buf, int64(b), 10)
	e.buf = append(e.buf, `,"columns":`...)
	e.buf = appendColumns(e.buf, cols)
	e.buf = append(e.buf, `,"dataset":`...)
	e.buf = appendString(e.buf, d.Name())
	e.buf = append(e.buf, `,"onlyA":`...)
	e.rows(onlyA)
	e.buf = append(e.buf, `,"onlyB":`...)
	e.rows(onlyB)
	e.buf = append(e.buf, "}\n"...)
	e.finish()
}

// handleHeat serves the dataset's access-heat table: the ?top= hottest
// versions by checkout count (default 10), cache hit ratios, the sliding-
// window op rate, and per-branch checkout rates.
func (s *Server) handleHeat(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	top := 10
	if raw := r.URL.Query().Get("top"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, badRequest(fmt.Sprintf("bad top %q (want a positive integer)", raw)))
			return
		}
		top = n
	}
	snap, err := d.Heat(top)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": d.Name(),
		"heat":    snap,
	})
}

// historyTierJSON renders one retention tier human-readably.
type historyTierJSON struct {
	Interval string `json:"interval"`
	Retain   string `json:"retain"`
}

// handleMetricsHistory serves the retained metrics time-series. ?name=
// selects one metric family (digest suffixes like _p95 and labeled children
// included); ?since= is either a relative duration ("15m") or an RFC 3339
// timestamp, defaulting to everything retained.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	h := s.store.MetricsHistory()
	if h == nil {
		writeError(w, badRequest("metrics history is not running (start the server with -history)"))
		return
	}
	q := r.URL.Query()
	var since time.Time
	if raw := q.Get("since"); raw != "" {
		if d, err := time.ParseDuration(raw); err == nil && d > 0 {
			since = time.Now().Add(-d)
		} else if t, err := time.Parse(time.RFC3339, raw); err == nil {
			since = t
		} else {
			writeError(w, badRequest(fmt.Sprintf("bad since %q (want a duration like 15m or an RFC 3339 time)", raw)))
			return
		}
	}
	series := h.Query(q.Get("name"), since)
	if series == nil {
		series = []obs.HistorySeries{}
	}
	tiers := h.Tiers()
	tjs := make([]historyTierJSON, len(tiers))
	for i, t := range tiers {
		tjs[i] = historyTierJSON{Interval: t.Interval.String(), Retain: t.Retain.String()}
	}
	resp := map[string]any{
		"tiers":  tjs,
		"series": series,
	}
	if name := q.Get("name"); name != "" {
		resp["name"] = name
	}
	if !since.IsZero() {
		resp["since"] = since.UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, resp)
}

type versionJSON struct {
	ID         int64   `json:"id"`
	Parents    []int64 `json:"parents"`
	Message    string  `json:"message"`
	CommitTime string  `json:"commitTime"`
	NumRecords int     `json:"numRecords"`
}

func versionToJSON(info *orpheusdb.VersionInfo) versionJSON {
	return versionJSON{
		ID:         int64(info.ID),
		Parents:    int64IDs(info.Parents),
		Message:    info.Message,
		CommitTime: info.CommitTime.UTC().Format(time.RFC3339Nano),
		NumRecords: info.NumRecords,
	}
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	vids := d.Versions()
	out := make([]versionJSON, 0, len(vids))
	for _, v := range vids {
		info, err := d.Info(v)
		if err != nil {
			writeError(w, err)
			return
		}
		out = append(out, versionToJSON(info))
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": d.Name(), "versions": out})
}

func (s *Server) handleVersionInfo(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	vid, err := pathVersion(r)
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := d.Info(vid)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, versionToJSON(info))
}

func (s *Server) handleAncestors(w http.ResponseWriter, r *http.Request) {
	s.handleRelatives(w, r, "ancestors")
}

func (s *Server) handleDescendants(w http.ResponseWriter, r *http.Request) {
	s.handleRelatives(w, r, "descendants")
}

func (s *Server) handleRelatives(w http.ResponseWriter, r *http.Request, dir string) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	vid, err := pathVersion(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var rel []orpheusdb.VersionID
	if dir == "ancestors" {
		rel, err = d.Ancestors(vid)
	} else {
		rel, err = d.Descendants(vid)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": d.Name(),
		"version": int64(vid),
		dir:       int64IDs(rel),
	})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		Gamma json.Number `json:"gamma"`
		Mu    json.Number `json:"mu"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	gamma := 2.0
	if req.Gamma != "" {
		if gamma, err = req.Gamma.Float64(); err != nil {
			writeError(w, badRequest("bad gamma"))
			return
		}
	}
	if req.Mu != "" {
		mu, err := req.Mu.Float64()
		if err != nil {
			writeError(w, badRequest("bad mu"))
			return
		}
		m, err := d.MaintainPartitions(gamma, mu)
		if err != nil {
			writeError(w, err)
			return
		}
		resp := map[string]any{
			"dataset":  d.Name(),
			"migrated": m.Migrated,
			"cavg":     m.Cavg,
			"bestCavg": m.BestCavg,
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := d.Optimize(gamma)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":          d.Name(),
		"delta":            res.Delta,
		"partitions":       res.Partitions,
		"estStorage":       res.EstStorage,
		"estCheckout":      res.EstCheckout,
		"solveMillis":      res.SolveMs,
		"migrationMillis":  res.MigrateTime.Milliseconds(),
		"storageBreakdown": d.StorageBreakdown(),
	})
}

// handlePartitioning reports the dataset's live partitioned layout plus the
// background optimizer's view of it (commits observed, best cost, drift
// tunables, migration counters).
func (s *Server) handlePartitioning(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	status, _ := d.PartitionStatus()
	resp := map[string]any{
		"dataset": d.Name(),
		"layout":  status,
	}
	if o := s.store.PartitionOptimizer(); o != nil {
		resp["optimizer"] = o.Status(d.Name())
	} else {
		resp["optimizer"] = orpheusdb.PartitionOptimizerStatus{Running: false}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRepartition repartitions now under the running optimizer's tunables
// (γ, batch rows) instead of waiting for its drift trigger; POST /optimize is
// the same migration with the budget in the request.
func (s *Server) handleRepartition(w http.ResponseWriter, r *http.Request) {
	o := s.store.PartitionOptimizer()
	if o == nil {
		writeError(w, badRequest("partition optimizer is not running (start the server with -optimize)"))
		return
	}
	rep, err := o.Trigger(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SQL    string `json:"sql"`
		Script bool   `json:"script"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, badRequest("sql is required"))
		return
	}
	var res *orpheusdb.Result
	var err error
	if req.Script {
		res, err = s.store.RunScript(r.Context(), req.SQL)
	} else {
		res, err = s.store.RunCtx(r.Context(), req.SQL)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	e := newRowStream(w, r)
	e.buf = append(e.buf, `{"affected":`...)
	e.buf = strconv.AppendInt(e.buf, int64(res.Affected), 10)
	e.buf = append(e.buf, `,"columns":`...)
	e.buf = appendStrings(e.buf, res.Cols)
	e.buf = append(e.buf, `,"rows":`...)
	e.rows(res.Rows)
	e.buf = append(e.buf, "}\n"...)
	e.finish()
}

func (s *Server) handleListUsers(w http.ResponseWriter, r *http.Request) {
	users := s.store.Users()
	if users == nil {
		users = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"users": users})
}

func (s *Server) handleCreateUser(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, badRequest("name is required"))
		return
	}
	if err := s.store.AddUser(req.Name); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name})
}
