package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	orpheusdb "orpheusdb"
)

type opKind uint8

const (
	opCheckout opKind = iota
	opCommit
	opQuery
	opDiff
	opMerge
	opRepartition
	opCheckpoint
)

// Sample classes. A class is a property of the request as generated — which
// op, and for checkouts which popularity rank — never of what the server did
// with it.
const (
	classHot    = "checkout.hot"
	classCold   = "checkout.cold"
	classPair   = "checkout.pair"
	classCommit = "commit"
	classQuery  = "query"
	classDiff   = "diff"
	classMerge  = "merge"
	classAdmin  = "admin"
)

// depth is how far below the wire an op enters the system. The traced run
// rotates ops through the depths and takes a layer's self time as the
// difference between adjacent depths' medians.
type depth uint8

const (
	depthTCP     depth = iota // HTTP over the loopback listener
	depthHandler              // Server.ServeHTTP on an in-memory writer
	depthStore                // Dataset.*Ctx / Store.RunCtx
	depthCore                 // CVD.*, below the dataset lock (reads only)
	numDepths
)

func (d depth) String() string {
	return [...]string{"tcp", "handler", "store", "core"}[d]
}

// snapshot is a version whose content the benchmark knows: the oracle.
type snapshot struct {
	dataset string
	vid     orpheusdb.VersionID
	rows    []orpheusdb.Row // nil once trimmed; fp stays
	fp      fingerprint
	parent  *snapshot
}

// sciSnapshots turns the generated plan into oracle snapshots, indexed like
// plan.versions.
func sciSnapshots(p *sciPlan) []*snapshot {
	out := make([]*snapshot, len(p.versions))
	for i, v := range p.versions {
		out[i] = &snapshot{dataset: "sci", vid: vidOf(i), rows: v.rows, fp: v.fp}
		if v.parent >= 0 {
			out[i].parent = out[v.parent]
		}
	}
	return out
}

// pair is a target lineage and a short-lived source lineage that is merged
// into it — a work branch and the feature branches cut from it. One client
// writes both, so it knows their heads and the merge base without asking the
// server: the base is the target head the source was forked from. After a
// merge the source is done with; the next source commit forks a new one.
type pair struct {
	dataset        string
	target, source *snapshot
	base           *snapshot
	// forked: a source lineage is open. targetOwn: the target has a commit
	// since the fork, so merging is not a fast-forward.
	forked, targetOwn bool
	// history is the target lineage, oldest first. Only table pairs keep it:
	// their reads pick from it, sci reads pick from the generated tree.
	history      []*snapshot
	keepHistory  bool
	upd, ins, de int
}

func newPair(head *snapshot, keepHistory bool, upd, ins, del int) *pair {
	p := &pair{dataset: head.dataset, target: head, source: head, base: head, keepHistory: keepHistory, upd: upd, ins: ins, de: del}
	if keepHistory {
		p.history = []*snapshot{head}
	}
	return p
}

// op is one scheduled request.
type op struct {
	kind  opKind
	class string
	snaps [2]*snapshot // read targets; snaps[1] is nil for single-version ops
	c     int64        // query threshold on column b
	pair  *pair        // commit and merge
	// onSource: the commit goes to the pair's source lineage.
	onSource bool
}

// key identifies a read request for the verify pass.
func (o *op) key() string {
	k := fmt.Sprintf("%d/%s/%d", o.kind, o.snaps[0].dataset, o.snaps[0].vid)
	if o.snaps[1] != nil {
		k += fmt.Sprintf(",%d", o.snaps[1].vid)
	}
	if o.kind == opQuery {
		k += fmt.Sprintf("/%d", o.c)
	}
	return k
}

// ack is one acknowledged write: after recovery the version must check out
// with this fingerprint.
type ack struct {
	dataset string
	vid     orpheusdb.VersionID
	fp      fingerprint
}

// client is one closed-loop user: it draws its next op from its own seeded
// schedule, sends it, and waits for the full reply.
type client struct {
	id     int
	e      *env
	opRng  *rand.Rand // the schedule: op kinds and read targets
	rowRng *rand.Rand // content of committed rows
	gen    *rowGen
	zipf   *zipf
	sci    []*snapshot // in commit order; nil when the store has no sci
	// The lineages the client writes: its share of sci's work-branch pairs
	// and of the small tables. tables says which of the two the current
	// stretch of traffic works on, reads included.
	sciPairs, tablePairs []*pair
	tables               bool
	mix                  mix

	hc   *http.Client
	buf  bytes.Buffer
	tr   *tracer
	acks []ack
}

// newClients builds the run's clients and splits the writable lineages among
// them: sci's four work-branch pairs, or the sixteen tables.
func newClients(n int, e *env, d *dataset, seed int64, scale float64) []*client {
	cs := make([]*client, n)
	var snaps []*snapshot
	if d.sci != nil {
		snaps = sciSnapshots(d.sci)
	}
	for i := range cs {
		c := &client{
			id:     i,
			e:      e,
			opRng:  rand.New(rand.NewSource(seed*1000 + int64(i)*2 + 1)),
			rowRng: rand.New(rand.NewSource(seed*1000 + int64(i)*2 + 2)),
			zipf:   newZipf(sciVersions, zipfS),
			sci:    snaps,
			mix:    e.sp.window,
			hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}},
		}
		// Each client's new keys come from its own range.
		c.gen = &rowGen{rng: c.rowRng, nextKey: int64(i+1) << 40}
		cs[i] = c
	}
	for t, rows := range d.tables {
		head := &snapshot{dataset: tableName(t), vid: 1, rows: rows, fp: fingerprintRows(rows)}
		c := cs[t%n]
		c.tablePairs = append(c.tablePairs, newPair(head, true, smallUpdateRows, smallInsertRows, smallDeleteRows))
	}
	if d.sci == nil {
		for _, c := range cs {
			c.tables = true
		}
		return cs
	}
	head := snaps[d.sci.mainlineHead]
	upd, ins := scaled(scale, 0.02), scaled(scale, 0.005)
	for p := 0; p < workBranches/2; p++ {
		c := cs[p%n]
		c.sciPairs = append(c.sciPairs, newPair(head, false, upd, ins, 0))
	}
	return cs
}

// pairs are the lineages the current stretch of traffic writes.
func (c *client) pairs() []*pair {
	if c.tables {
		return c.tablePairs
	}
	return c.sciPairs
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// next draws the client's next op. It depends only on the client's seed and
// its own completed ops, never on what the server answered or when.
func (c *client) next() *op {
	var kind opKind
	r := c.opRng.Intn(100)
	m := c.mix
	switch {
	case r < m.checkout:
		kind = opCheckout
	case r < m.checkout+m.commit:
		kind = opCommit
	case r < m.checkout+m.commit+m.query:
		kind = opQuery
	case r < m.checkout+m.commit+m.query+m.diff:
		kind = opDiff
	default:
		kind = opMerge
	}
	switch kind {
	case opCheckout:
		o := &op{kind: opCheckout}
		var hot bool
		o.snaps[0], hot = c.pickRead()
		o.class = classCold
		if hot {
			o.class = classHot
		}
		// One checkout in ten asks for two versions; the first wins on keys
		// both hold.
		if c.mix.twoVersion && !c.tables && c.opRng.Intn(10) == 0 {
			o.snaps[1], _ = c.pickRead()
			if o.snaps[1] == o.snaps[0] {
				o.snaps[1] = nil
			} else {
				o.class = classPair
			}
		}
		return o
	case opQuery:
		o := &op{kind: opQuery, class: classQuery, c: c.opRng.Int63n(bRange)}
		o.snaps[0] = c.pickAny()
		// One query in three scans the records two versions share.
		if !c.tables && c.opRng.Intn(3) == 0 {
			if o.snaps[1] = c.pickAny(); o.snaps[1] == o.snaps[0] {
				o.snaps[1] = nil
			}
		}
		return o
	case opDiff:
		o := &op{kind: opDiff, class: classDiff}
		o.snaps[0] = c.pickAny()
		if o.snaps[0].parent == nil || o.snaps[0].parent.rows == nil {
			// The root has no parent: diff the newest version that has one.
			o.snaps[0] = c.newestWithParent()
		}
		o.snaps[1] = o.snaps[0].parent
		return o
	case opCommit:
		// Table commits extend the table's one lineage; sci commits land on
		// either branch of the pair.
		p := c.pairs()[c.opRng.Intn(len(c.pairs()))]
		return &op{kind: opCommit, class: classCommit, pair: p, onSource: !c.tables && c.opRng.Intn(2) == 0}
	default: // opMerge
		p := c.pairs()[c.opRng.Intn(len(c.pairs()))]
		// A merge needs an open source, and a target that moved since the
		// fork; until both hold, the slot goes to the commit that is missing.
		switch {
		case !p.forked:
			return &op{kind: opCommit, class: classCommit, pair: p, onSource: true}
		case !p.targetOwn:
			return &op{kind: opCommit, class: classCommit, pair: p}
		}
		return &op{kind: opMerge, class: classMerge, pair: p}
	}
}

// pickRead draws a version by Zipf popularity, newest first, and reports
// whether its rank is one of the hot ranks.
func (c *client) pickRead() (*snapshot, bool) {
	rank := c.zipf.draw(c.opRng)
	if !c.tables {
		return c.sci[len(c.sci)-1-rank], rank < hotRanks
	}
	p := c.tablePairs[c.opRng.Intn(len(c.tablePairs))]
	if rank >= len(p.history) {
		rank = len(p.history) - 1
	}
	return p.history[len(p.history)-1-rank], rank < hotRanks
}

// pickAny draws a version for a query or a diff: uniformly, so that the
// class has one cost distribution, not a cached and an uncached one whose
// mix decides the median. On the tables only the newest versions still have
// rows in the oracle, so the draw is among those.
func (c *client) pickAny() *snapshot {
	if !c.tables {
		return c.sci[c.opRng.Intn(len(c.sci))]
	}
	p := c.tablePairs[c.opRng.Intn(len(c.tablePairs))]
	n := len(p.history)
	if n > hotRanks {
		n = hotRanks
	}
	return p.history[len(p.history)-1-c.opRng.Intn(n)]
}

func (c *client) newestWithParent() *snapshot {
	if !c.tables {
		return c.sci[len(c.sci)-1]
	}
	for _, p := range c.tablePairs {
		if h := p.history[len(p.history)-1]; h.parent != nil && h.parent.rows != nil {
			return h
		}
	}
	panic("bench: no table has two versions yet; the write block runs before the diff block")
}

// done records a completed op in the client's bookkeeping. snap is the
// version a write produced (nil in a dry run of the schedule).
func (c *client) done(o *op, snap *snapshot) {
	p := o.pair
	switch o.kind {
	case opCommit:
		if o.onSource {
			if !p.forked {
				// The target must move before the merge, or the merge
				// would be a fast-forward.
				p.forked, p.base, p.targetOwn = true, p.target, false
			}
			if snap != nil {
				p.source = snap
			}
			break
		}
		p.targetOwn = true
		if snap != nil {
			p.advanceTarget(snap)
		}
	case opMerge:
		p.forked = false
		if snap != nil {
			p.advanceTarget(snap)
		}
	}
	if snap != nil {
		c.acks = append(c.acks, ack{dataset: snap.dataset, vid: snap.vid, fp: snap.fp})
	}
}

// keepRows is how many of a table's newest versions keep their rows for
// diffs and queries; older ones keep only the fingerprint.
const keepRows = 8

func (p *pair) advanceTarget(snap *snapshot) {
	p.target = snap
	if !p.keepHistory {
		return
	}
	p.history = append(p.history, snap)
	if n := len(p.history); n > keepRows {
		if old := p.history[n-1-keepRows]; old != p.base && old != p.source {
			old.rows = nil
		}
	}
}

// outcome is what an op returned, with the check that compares it to the
// oracle. The check runs outside the op's timed section.
type outcome struct {
	bytes     int       // response body bytes at the HTTP depths
	snap      *snapshot // the version a write produced
	userBytes int64     // new record bytes a commit carried
	check     func() error
}

var bg = context.Background()

// do executes one op at the given depth and returns its latency. With
// verify, reads keep their body and the outcome carries a check.
func (c *client) do(o *op, d depth, verify bool) (time.Duration, outcome, error) {
	switch o.kind {
	case opCheckout:
		return c.doCheckout(o, d, verify)
	case opCommit:
		return c.doCommit(o, d)
	case opQuery:
		return c.doQuery(o, d, verify)
	case opDiff:
		return c.doDiff(o, d, verify)
	case opMerge:
		return c.doMerge(o, d)
	case opRepartition:
		// The operator's requests go over the wire only.
		lat, _, n, err := c.roundTrip(depthTCP, http.MethodPost, "/api/v1/datasets/sci/partitioning", nil, http.StatusOK, false)
		return lat, outcome{bytes: n}, err
	default: // opCheckpoint
		lat, _, n, err := c.roundTrip(depthTCP, http.MethodPost, "/api/v1/wal/checkpoint", nil, http.StatusOK, false)
		return lat, outcome{bytes: n}, err
	}
}

// memWriter is the in-memory http.ResponseWriter of depthHandler.
type memWriter struct {
	h      http.Header
	status int
	body   *bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(s int)           { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// roundTrip sends one HTTP request at depthTCP or depthHandler and reads the
// whole reply. The returned body aliases the client's buffer and is only
// valid until the next request; it is nil unless keep is set.
func (c *client) roundTrip(d depth, method, path string, body []byte, want int, keep bool) (time.Duration, []byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.e.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	t0 := time.Now()
	var status int
	var n int64
	if d == depthHandler {
		sp := c.tr.start("server.ServeHTTP")
		w := &memWriter{h: make(http.Header), status: http.StatusOK, body: &c.buf}
		c.e.srv.ServeHTTP(w, req)
		sp.end()
		status, n = w.status, int64(c.buf.Len())
	} else {
		sp := c.tr.start("http.roundtrip")
		resp, err := c.hc.Do(req)
		sp.end()
		if err != nil {
			return time.Since(t0), nil, 0, err
		}
		sp = c.tr.start("http.read_body")
		status = resp.StatusCode
		if keep || status != want {
			n, err = c.buf.ReadFrom(resp.Body)
		} else {
			n, err = io.Copy(io.Discard, resp.Body)
		}
		sp.end()
		resp.Body.Close()
		if err != nil {
			return time.Since(t0), nil, int(n), fmt.Errorf("%s %s: short body: %w", method, path, err)
		}
	}
	lat := time.Since(t0)
	if status != want {
		return lat, nil, int(n), fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, c.buf.Bytes())
	}
	if n == 0 {
		return lat, nil, 0, fmt.Errorf("%s %s: empty body", method, path)
	}
	if !keep {
		return lat, nil, int(n), nil
	}
	return lat, c.buf.Bytes(), int(n), nil
}

func vids(o *op) []orpheusdb.VersionID {
	out := []orpheusdb.VersionID{o.snaps[0].vid}
	if o.snaps[1] != nil {
		out = append(out, o.snaps[1].vid)
	}
	return out
}

func (c *client) dataset(name string) (*orpheusdb.Dataset, error) { return c.e.store.Dataset(name) }

func (c *client) doCheckout(o *op, d depth, verify bool) (time.Duration, outcome, error) {
	want := checkoutOracle(o)
	if d >= depthStore {
		ds, err := c.dataset(o.snaps[0].dataset)
		if err != nil {
			return 0, outcome{}, err
		}
		var rows []orpheusdb.Row
		t0 := time.Now()
		if d == depthStore {
			sp := c.tr.start("store.Checkout")
			_, rows, _, err = ds.CheckoutWithTokenCtx(bg, vids(o)...)
			sp.end()
		} else {
			sp := c.tr.start("core.Checkout")
			rows, err = ds.CVD().CheckoutCtx(bg, vids(o)...)
			sp.end()
		}
		lat := time.Since(t0)
		return lat, outcome{check: func() error { return want.match("checkout", fingerprintRows(rows)) }}, err
	}
	path := "/api/v1/datasets/" + o.snaps[0].dataset + "/checkout?versions=" + strconv.FormatInt(int64(o.snaps[0].vid), 10)
	if o.snaps[1] != nil {
		path += "," + strconv.FormatInt(int64(o.snaps[1].vid), 10)
	}
	lat, body, n, err := c.roundTrip(d, http.MethodGet, path, nil, http.StatusOK, verify)
	out := outcome{bytes: n}
	if err == nil && verify {
		var reply struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return lat, out, fmt.Errorf("checkout reply: %w", err)
		}
		out.check = func() error {
			got, err := fingerprintWire(reply.Rows)
			if err != nil {
				return err
			}
			return want.match("checkout", got)
		}
	}
	return lat, out, err
}

// lazyFP is an oracle fingerprint computed when first needed.
type lazyFP func() fingerprint

func (want lazyFP) match(what string, got fingerprint) error {
	if w := want(); w != got {
		return fmt.Errorf("%s: got %d rows sum %x, oracle has %d rows sum %x", what, got.Rows, got.Sum, w.Rows, w.Sum)
	}
	return nil
}

// checkoutOracle is what the checkout must return: the version's rows, or for
// two versions their union with the first winning on shared keys.
func checkoutOracle(o *op) lazyFP {
	a, b := o.snaps[0], o.snaps[1]
	if b == nil {
		return func() fingerprint { return a.fp }
	}
	return func() fingerprint {
		fp := a.fp
		keys := make(map[int64]struct{}, len(a.rows))
		for _, r := range a.rows {
			keys[r[0].I] = struct{}{}
		}
		for _, r := range b.rows {
			if _, dup := keys[r[0].I]; !dup {
				fp.add(hashRow(r))
			}
		}
		return fp
	}
}

// fingerprintWire fingerprints rows as the JSON API returns them.
func fingerprintWire(rows [][]any) (fingerprint, error) {
	var fp fingerprint
	for _, r := range rows {
		if len(r) != 5 {
			return fp, fmt.Errorf("row with %d cells", len(r))
		}
		k, ok1 := r[0].(float64)
		a, ok2 := r[1].(float64)
		b, ok3 := r[2].(float64)
		x, ok4 := r[3].(float64)
		s, ok5 := r[4].(string)
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			return fp, fmt.Errorf("row %v: wrong cell types", r)
		}
		fp.add(hashFields(int64(k), int64(a), int64(b), x, s))
	}
	return fp, nil
}

// appendRowsJSON renders rows as the commit endpoint reads them. The cells
// need no escaping: numbers and a hex string.
func appendRowsJSON(b []byte, rows []orpheusdb.Row) []byte {
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, r[0].I, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r[1].I, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r[2].I, 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, r[3].F, 'g', -1, 64)
		b = append(b, ',', '"')
		b = append(b, r[4].S...)
		b = append(b, '"', ']')
	}
	return append(b, ']')
}

func (c *client) doCommit(o *op, d depth) (time.Duration, outcome, error) {
	p := o.pair
	parent := p.target
	if o.onSource && p.forked {
		parent = p.source
	}
	rows, fresh := c.gen.mutate(parent.rows, p.upd, p.ins, p.de)
	snap := &snapshot{dataset: p.dataset, rows: rows, fp: fingerprintRows(rows), parent: parent}
	out := outcome{snap: snap, userBytes: int64(fresh) * rowUserBytes}
	if d >= depthStore {
		ds, err := c.dataset(p.dataset)
		if err != nil {
			return 0, out, err
		}
		t0 := time.Now()
		sp := c.tr.start("store.Commit")
		vid, err := ds.CommitCtx(bg, rows, []orpheusdb.VersionID{parent.vid}, "c")
		sp.end()
		snap.vid = vid
		return time.Since(t0), out, err
	}
	body := append([]byte(`{"message":"c","parents":[`), strconv.FormatInt(int64(parent.vid), 10)...)
	body = append(body, `],"rows":`...)
	body = append(appendRowsJSON(body, rows), '}')
	lat, reply, _, err := c.roundTrip(d, http.MethodPost, "/api/v1/datasets/"+p.dataset+"/commit", body, http.StatusCreated, true)
	if err != nil {
		return lat, out, err
	}
	var r struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(reply, &r); err != nil || r.Version <= 0 {
		return lat, out, fmt.Errorf("commit reply %q: %v", reply, err)
	}
	snap.vid = orpheusdb.VersionID(r.Version)
	return lat, out, nil
}

// mergeOracle is the three-way merge under policy theirs: every key the
// source changed since the base takes the source's outcome (including
// deletion), every other key keeps the target's.
func mergeOracle(base, ours, theirs []orpheusdb.Row) []orpheusdb.Row {
	index := func(rows []orpheusdb.Row) map[int64]orpheusdb.Row {
		m := make(map[int64]orpheusdb.Row, len(rows))
		for _, r := range rows {
			m[r[0].I] = r
		}
		return m
	}
	same := func(a, b orpheusdb.Row) bool {
		return (a == nil) == (b == nil) && (a == nil || hashRow(a) == hashRow(b))
	}
	bm, tm := index(base), index(theirs)
	out := make([]orpheusdb.Row, 0, len(ours)+len(theirs)-len(base))
	for _, r := range ours {
		k := r[0].I
		if same(bm[k], tm[k]) {
			out = append(out, r) // the source left this key alone
		}
	}
	for _, r := range theirs {
		if !same(bm[r[0].I], r) {
			out = append(out, r) // changed or added on the source
		}
	}
	return out
}

func (c *client) doMerge(o *op, d depth) (time.Duration, outcome, error) {
	p := o.pair
	rows := mergeOracle(p.base.rows, p.target.rows, p.source.rows)
	snap := &snapshot{dataset: p.dataset, rows: rows, fp: fingerprintRows(rows), parent: p.target}
	out := outcome{snap: snap}
	ours, theirs := strconv.FormatInt(int64(p.target.vid), 10), strconv.FormatInt(int64(p.source.vid), 10)
	if d >= depthStore {
		ds, err := c.dataset(p.dataset)
		if err != nil {
			return 0, out, err
		}
		t0 := time.Now()
		sp := c.tr.start("store.Merge")
		res, err := ds.MergeCtx(bg, ours, theirs, orpheusdb.MergeTheirs, "m")
		sp.end()
		lat := time.Since(t0)
		if err != nil {
			return lat, out, err
		}
		if res.UpToDate || res.FastForward {
			return lat, out, fmt.Errorf("merge %s into %s made no version", theirs, ours)
		}
		snap.vid = res.Version
		return lat, out, nil
	}
	body := []byte(`{"ours":"` + ours + `","theirs":"` + theirs + `","policy":"theirs","message":"m"}`)
	lat, reply, _, err := c.roundTrip(d, http.MethodPost, "/api/v1/datasets/"+p.dataset+"/merge", body, http.StatusOK, true)
	if err != nil {
		return lat, out, err
	}
	var r struct {
		Version     int64 `json:"version"`
		UpToDate    bool  `json:"upToDate"`
		FastForward bool  `json:"fastForward"`
	}
	if err := json.Unmarshal(reply, &r); err != nil || r.Version <= 0 || r.UpToDate || r.FastForward {
		return lat, out, fmt.Errorf("merge reply %q: %v", reply, err)
	}
	snap.vid = orpheusdb.VersionID(r.Version)
	return lat, out, nil
}

func querySQL(o *op) string {
	ref := strconv.FormatInt(int64(o.snaps[0].vid), 10)
	if o.snaps[1] != nil {
		ref += " INTERSECT " + strconv.FormatInt(int64(o.snaps[1].vid), 10)
	}
	return "SELECT count(*), avg(a) FROM VERSION " + ref + " OF CVD " + o.snaps[0].dataset + " WHERE b < " + strconv.FormatInt(o.c, 10)
}

// queryOracle is count(*) and avg(a) over the version's rows with b < c;
// for an INTERSECT, over the records both versions hold.
func queryOracle(o *op) (count int64, avg float64) {
	var both map[uint64]struct{}
	if o.snaps[1] != nil {
		both = make(map[uint64]struct{}, len(o.snaps[1].rows))
		for _, r := range o.snaps[1].rows {
			both[hashRow(r)] = struct{}{}
		}
	}
	var sum int64
	for _, r := range o.snaps[0].rows {
		if r[2].I >= o.c {
			continue
		}
		if both != nil {
			if _, ok := both[hashRow(r)]; !ok {
				continue
			}
		}
		count++
		sum += r[1].I
	}
	if count > 0 {
		avg = float64(sum) / float64(count)
	}
	return count, avg
}

func checkQuery(o *op, gotCount int64, gotAvg float64, avgNull bool) error {
	count, avg := queryOracle(o)
	if gotCount != count {
		return fmt.Errorf("query: count %d, oracle %d", gotCount, count)
	}
	if count == 0 {
		if !avgNull && gotAvg != 0 {
			return fmt.Errorf("query: avg %v over no rows", gotAvg)
		}
		return nil
	}
	if avgNull || math.Abs(gotAvg-avg) > 1e-6*math.Abs(avg) {
		return fmt.Errorf("query: avg %v, oracle %v", gotAvg, avg)
	}
	return nil
}

func (c *client) doQuery(o *op, d depth, verify bool) (time.Duration, outcome, error) {
	src := querySQL(o)
	if d >= depthStore {
		t0 := time.Now()
		sp := c.tr.start("store.Run")
		res, err := c.e.store.RunCtx(bg, src)
		sp.end()
		lat := time.Since(t0)
		if err != nil {
			return lat, outcome{}, err
		}
		return lat, outcome{check: func() error {
			if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
				return fmt.Errorf("query: result shape %v", res.Rows)
			}
			cell := res.Rows[0][1]
			avg := cell.F
			if cell.K == orpheusdb.KindInt {
				avg = float64(cell.I)
			}
			return checkQuery(o, res.Rows[0][0].I, avg, cell.K != orpheusdb.KindFloat && cell.K != orpheusdb.KindInt)
		}}, nil
	}
	body, _ := json.Marshal(map[string]string{"sql": src}) // a string map cannot fail to marshal
	lat, reply, n, err := c.roundTrip(d, http.MethodPost, "/api/v1/query", body, http.StatusOK, verify)
	out := outcome{bytes: n}
	if err == nil && verify {
		var r struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(reply, &r); err != nil || len(r.Rows) != 1 || len(r.Rows[0]) != 2 {
			return lat, out, fmt.Errorf("query reply %q: %v", reply, err)
		}
		out.check = func() error {
			count, _ := r.Rows[0][0].(float64)
			avg, isNum := r.Rows[0][1].(float64)
			return checkQuery(o, int64(count), avg, !isNum)
		}
	}
	return lat, out, err
}

// diffOracle fingerprints the rows only a holds and the rows only b holds.
func diffOracle(a, b *snapshot) (onlyA, onlyB fingerprint) {
	in := func(rows []orpheusdb.Row) map[uint64]struct{} {
		m := make(map[uint64]struct{}, len(rows))
		for _, r := range rows {
			m[hashRow(r)] = struct{}{}
		}
		return m
	}
	ha, hb := in(a.rows), in(b.rows)
	for h := range ha {
		if _, ok := hb[h]; !ok {
			onlyA.add(h)
		}
	}
	for h := range hb {
		if _, ok := ha[h]; !ok {
			onlyB.add(h)
		}
	}
	return onlyA, onlyB
}

func (c *client) doDiff(o *op, d depth, verify bool) (time.Duration, outcome, error) {
	a, b := o.snaps[0], o.snaps[1]
	check := func(gotA, gotB fingerprint) error {
		wantA, wantB := diffOracle(a, b)
		if gotA != wantA || gotB != wantB {
			return fmt.Errorf("diff %d vs %d: got %d/%d rows, oracle %d/%d", a.vid, b.vid, gotA.Rows, gotB.Rows, wantA.Rows, wantB.Rows)
		}
		return nil
	}
	if d >= depthStore {
		ds, err := c.dataset(a.dataset)
		if err != nil {
			return 0, outcome{}, err
		}
		var onlyA, onlyB []orpheusdb.Row
		t0 := time.Now()
		if d == depthStore {
			sp := c.tr.start("store.Diff")
			_, onlyA, onlyB, err = ds.DiffWithColumns(a.vid, b.vid)
			sp.end()
		} else {
			sp := c.tr.start("core.Diff")
			onlyA, onlyB, err = ds.CVD().Diff(a.vid, b.vid)
			sp.end()
		}
		lat := time.Since(t0)
		return lat, outcome{check: func() error { return check(fingerprintRows(onlyA), fingerprintRows(onlyB)) }}, err
	}
	path := fmt.Sprintf("/api/v1/datasets/%s/diff?a=%d&b=%d", a.dataset, a.vid, b.vid)
	lat, reply, n, err := c.roundTrip(d, http.MethodGet, path, nil, http.StatusOK, verify)
	out := outcome{bytes: n}
	if err == nil && verify {
		var r struct {
			OnlyA [][]any `json:"onlyA"`
			OnlyB [][]any `json:"onlyB"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			return lat, out, fmt.Errorf("diff reply: %w", err)
		}
		out.check = func() error {
			gotA, err := fingerprintWire(r.OnlyA)
			if err != nil {
				return err
			}
			gotB, err := fingerprintWire(r.OnlyB)
			if err != nil {
				return err
			}
			return check(gotA, gotB)
		}
	}
	return lat, out, err
}
