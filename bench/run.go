package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	orpheusdb "orpheusdb"
)

// runConfig is one invocation: a workload, a seed, and how long to measure.
type runConfig struct {
	sp      *spec
	seed    int64
	scale   float64
	seconds float64
	clients int
	// setups is how many times the timed run sets the store up at least;
	// setup_s is their median.
	setups int
	work   string // scratch directory for this run's stores, inside the checkout
	out    string // where results.json and the trace go
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result; the last line of standard output is its
// correct/attempted/failed/metrics subset.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Scale     float64            `json:"scale"`
	Clients   int                `json:"clients"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]summary `json:"samples"` // latency classes in ms, and set-up and recovery in s
	Sizes     map[string]int64   `json:"sizes"`
	Failures  []string           `json:"failures,omitempty"`
	// Unsupported names the percentile metrics that had fewer than ten
	// samples beyond them in this run.
	Unsupported []string `json:"unsupported,omitempty"`
}

// tally counts ops against failures; a non-2xx, a short body, a wrong
// answer and a version that does not survive recovery all fail.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) try(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, err.Error())
	}
	return false
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.msgs {
		if len(t.msgs) < 10 {
			t.msgs = append(t.msgs, m)
		}
	}
}

// phase is what one driven stretch of traffic measured.
type phase struct {
	lat     map[string]samples // ms by class
	ops     int
	elapsed time.Duration
	tally   tally
	reads   map[string]*op // one op per distinct read request, for the verify pass
	user    int64          // new record bytes committed
}

func newPhase() *phase { return &phase{lat: map[string]samples{}, reads: map[string]*op{}} }

func (p *phase) absorb(o *phase) {
	for k, v := range o.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	for k, v := range o.reads {
		p.reads[k] = v
	}
	p.ops += o.ops
	p.user += o.user
	if o.elapsed > p.elapsed {
		p.elapsed = o.elapsed
	}
	p.tally.merge(o.tally)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// step runs one op of the client's schedule at TCP depth and books it. The
// reply's body is read but not decoded, which would cost the server's
// processors; the verify pass decodes one reply per distinct read later.
func (c *client) step(p *phase) {
	o := c.next()
	lat, out, err := c.do(o, depthTCP, false)
	if !p.tally.try(err) {
		return
	}
	c.done(o, out.snap)
	p.ops++
	p.user += out.userBytes
	p.lat[o.class] = append(p.lat[o.class], ms(lat))
	if o.snaps[0] != nil {
		p.reads[o.key()] = o
	}
}

// adminPoint is one piece of operator-triggered background work: at the
// given fraction of a driven stretch, an operator sends the request. Fixed
// points in time, not op counts, so every run has the same number of them.
type adminPoint struct {
	at   float64
	kind opKind
}

// drive runs every client closed-loop, each waiting for a full reply before
// its next request, until the time is up and the client has completed
// minOps ops, so that a stretch too short for the machine still samples
// every class. The workload's admin points are sent by an operator of their
// own, closed-loop as well.
func drive(cs []*client, dur time.Duration, minOps int, admin []adminPoint) *phase {
	parts := make([]*phase, len(cs)+1)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range cs {
		parts[i] = newPhase()
		wg.Add(1)
		go func(c *client, p *phase) {
			defer wg.Done()
			for time.Now().Before(deadline) || p.ops < minOps && p.tally.failed == 0 {
				c.step(p)
			}
			p.elapsed = time.Since(start)
		}(c, parts[i])
	}
	ops := newPhase()
	parts[len(cs)] = ops
	if len(admin) > 0 {
		operator := &client{e: cs[0].e, hc: cs[0].hc}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range admin {
				time.Sleep(time.Until(start.Add(time.Duration(a.at * float64(dur)))))
				lat, _, err := operator.do(&op{kind: a.kind, class: classAdmin}, depthTCP, false)
				if ops.tally.try(err) {
					ops.ops++
					ops.lat[classAdmin] = append(ops.lat[classAdmin], ms(lat))
				}
			}
		}()
	}
	wg.Wait()
	all := newPhase()
	for _, p := range parts {
		all.absorb(p)
	}
	return all
}

// verifyPerBlock bounds how many of a block's distinct reads are verified.
const verifyPerBlock = 300

// blockMinOps is how many ops each client completes in a block at least,
// however short the block: enough for a few merges among its commits.
const blockMinOps = 40

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verifyReads re-issues one request per distinct read of the window, decodes
// the whole reply and compares it with the oracle.
func verifyReads(c *client, reads map[string]*op) tally {
	var t tally
	for _, k := range sortedKeys(reads) {
		_, out, err := c.do(reads[k], depthTCP, true)
		if err == nil {
			err = out.check()
		}
		t.try(err)
	}
	return t
}

// checkAcks checks every acknowledged write out of a reopened store and
// compares its fingerprint with the one recorded at the ack.
func checkAcks(st *orpheusdb.Store, acks []ack) tally {
	var t tally
	st.SetCacheBudget(0) // every version is read once; caching them only churns
	for _, a := range acks {
		ds, err := st.Dataset(a.dataset)
		if err == nil {
			var rows []orpheusdb.Row
			if rows, err = ds.Checkout(a.vid); err == nil && fingerprintRows(rows) != a.fp {
				err = fmt.Errorf("%s version %d after recovery: %d rows, acknowledged %d (or content differs)", a.dataset, a.vid, len(rows), a.fp.Rows)
			}
		}
		t.try(err)
	}
	return t
}

// setUpMedian sets the store up several times, since one bulk load is too
// noisy to compare between commits, and keeps the last one open.
func setUpMedian(cfg runConfig, d *dataset) (*env, []float64, error) {
	var times []float64
	var total time.Duration
	for rep := 0; ; rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		e, err := setUp(cfg.sp, d, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		times = append(times, dt.Seconds())
		total += dt
		// Cheap set-ups repeat until they add up to something a clock can
		// compare.
		if len(times) >= cfg.setups && (total >= 1500*time.Millisecond || len(times) >= 5*cfg.setups) {
			return e, times, nil
		}
		e.crash()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// fixture commits a fixed handful of versions on a WAL workload — one per
// lineage, so the log the recovery replays is the same size every run — and
// returns the user bytes they carried.
func fixture(cs []*client) (*phase, error) {
	p := newPhase()
	for _, c := range cs {
		for _, pr := range c.sciPairs {
			for _, onSource := range []bool{false, true} {
				if err := c.fixtureCommit(p, pr, onSource); err != nil {
					return p, err
				}
			}
		}
		for _, pr := range c.tablePairs {
			if err := c.fixtureCommit(p, pr, false); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

func (c *client) fixtureCommit(p *phase, pr *pair, onSource bool) error {
	o := &op{kind: opCommit, class: classCommit, pair: pr, onSource: onSource}
	_, out, err := c.do(o, depthTCP, false)
	if !p.tally.try(err) {
		return fmt.Errorf("fixture commit: %w", err)
	}
	c.done(o, out.snap)
	p.user += out.userBytes
	return nil
}

// timeRecovery opens a fresh byte copy of a crash image the way the workload
// serves it — replaying the log — and checks the newest acknowledged version
// out: the time until the first correct answer after a crash.
func timeRecovery(cfg runConfig, image string, pageBudget int64, first ack) ([]float64, error) {
	var times []float64
	var total float64
	// Like set-up: several times, and a cheap recovery until the sum is
	// something a clock can compare.
	for i := 0; i < cfg.setups || (total < 1 && i < 5*cfg.setups); i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("recover%d", i))
		if err := copyTree(image, dir); err != nil {
			return nil, err
		}
		// A recovering process starts with an empty heap; this one carries
		// the whole run's garbage, and whether a collection lands inside the
		// tens of milliseconds measured here would otherwise be chance.
		runtime.GC()
		t0 := time.Now()
		st, err := openStore(cfg.sp, dir, pageBudget)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		t := checkAcks(st, []ack{first})
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		release(st)
		if t.failed > 0 {
			return nil, fmt.Errorf("recover: %s", t.msgs[0])
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return times, nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src by construction
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		_, err = copyFile(path, filepath.Join(dst, rel))
		return err
	})
}

// headAck is the newest version of the set-up data, for workloads whose
// image holds no acknowledged write of the run.
func headAck(d *dataset) ack {
	if d.sci != nil {
		last := len(d.sci.versions) - 1
		return ack{dataset: "sci", vid: vidOf(last), fp: d.sci.versions[last].fp}
	}
	return ack{dataset: tableName(0), vid: 1, fp: fingerprintRows(d.tables[0])}
}

// runTimed is the untraced run: every end-to-end metric of one workload.
func runTimed(cfg runConfig) (*report, error) {
	sp := cfg.sp
	rep := &report{Workload: sp.name, Seed: cfg.seed, Scale: cfg.scale, Clients: cfg.clients, Seconds: cfg.seconds,
		Metrics: map[string]metric{}, Samples: map[string]summary{}, Sizes: map[string]int64{}}
	var total tally

	d := generate(sp, cfg.seed, cfg.scale)
	e, setups, err := setUpMedian(cfg, d)
	if err != nil {
		return nil, err
	}
	crashed := false
	defer func() {
		if !crashed {
			e.crash()
		}
	}()
	cs := newClients(cfg.clients, e, d, cfg.seed, cfg.scale)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()

	// The crash image every run's recovery and space figures come from is
	// taken before the window, after a fixed number of acknowledged commits,
	// so neither depends on how many ops the window got through.
	userBytes := d.userBytes
	first := headAck(d)
	if sp.wal {
		fx, err := fixture(cs)
		total.merge(fx.tally)
		if err != nil {
			return nil, err
		}
		userBytes += fx.user
		last := cs[len(cs)-1]
		first = last.acks[len(last.acks)-1]
	}
	image := filepath.Join(cfg.work, "image")
	imageBytes, err := e.image(image)
	if err != nil {
		return nil, err
	}
	// The fixture's commits armed the save timer with no deadline; a flush
	// disarms it so the workload's own delay applies from here on.
	e.store.SetSaveDelay(sp.saveDelay)
	if sp.wal {
		if err := e.store.Flush(); err != nil {
			return nil, err
		}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := drive(cs, window/20, 0, nil)
	total.merge(warm.tally)
	win := drive(cs, window, 0, sp.admin)
	total.merge(win.tally)
	lat := win.lat
	// The blocks run without background saves, which only the window's
	// commits would have scheduled; a pending one finishes first.
	e.store.SetSaveDelay(never)
	if err := e.store.Flush(); err != nil {
		return nil, err
	}
	for class, v := range win.lat {
		rep.Samples["window."+class+"_ms"] = summarize(v)
	}
	reads := win.reads
	for _, b := range sp.blocks {
		for _, c := range cs {
			c.mix, c.tables = b.mix, true
		}
		// Dirty pages stay resident, whatever the page budget, until a
		// checkpoint writes them: without one before each block, what the
		// block before left dirty decides how much of the budget this one
		// has, and its reads fall on one side or the other of a cliff.
		if e.store.DB().Backend() != nil {
			if err := e.store.Checkpoint(); err != nil {
				return nil, err
			}
		}
		ph := drive(cs, time.Duration(b.share*float64(window)), blockMinOps, nil)
		total.merge(ph.tally)
		for _, class := range b.classes {
			lat[class] = ph.lat[class]
			rep.Samples["block."+class+"_ms"] = summarize(ph.lat[class])
		}
		// A block makes thousands of distinct requests; the verify pass
		// takes an even sample of them.
		keys := sortedKeys(ph.reads)
		for i := 0; i < len(keys); i += len(keys)/verifyPerBlock + 1 {
			reads[keys[i]] = ph.reads[keys[i]]
		}
	}
	total.merge(verifyReads(cs[0], reads))

	// The run ends with a crash: the unclosed store's bytes are copied and
	// reopened, and every write acknowledged since set-up must be there. A
	// workload without a log has nothing acknowledged as durable until
	// Close, so it closes first.
	var acks []ack
	for _, c := range cs {
		acks = append(acks, c.acks...)
	}
	end := e.dir
	if sp.wal {
		end = filepath.Join(cfg.work, "end")
		if _, err := e.image(end); err != nil {
			return nil, err
		}
		e.crash()
	} else {
		e.stopServing()
		err := e.store.Close()
		release(e.store)
		if err != nil {
			return nil, err
		}
	}
	crashed = true
	st, err := openStore(sp, end, e.pageBudget)
	if err != nil {
		return nil, fmt.Errorf("reopen after the run: %w", err)
	}
	total.merge(checkAcks(st, acks))
	release(st)

	recovers, err := timeRecovery(cfg, image, e.pageBudget, first)
	if err != nil {
		return nil, err
	}

	// Metrics.
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	pct := func(name, class string, q float64) {
		s := sortedCopy(lat[class])
		if len(s) == 0 {
			err = fmt.Errorf("no %s op completed, so %s has no value", class, name)
			return
		}
		if !supported(len(s), q) {
			rep.Unsupported = append(rep.Unsupported, name)
		}
		set(name, quantile(s, q), "ms")
	}
	set("setup_s", median(setups), "s")
	set("ops_per_s", float64(win.ops)/win.elapsed.Seconds(), "1/s")
	pct("checkout_hot_p50_ms", classHot, 0.5)
	pct("checkout_cold_p50_ms", classCold, 0.5)
	pct("checkout_cold_p95_ms", classCold, 0.95)
	pct("commit_p50_ms", classCommit, 0.5)
	pct("commit_p95_ms", classCommit, 0.95)
	pct("query_p50_ms", classQuery, 0.5)
	pct("diff_p50_ms", classDiff, 0.5)
	pct("merge_p50_ms", classMerge, 0.5)
	set("recover_s", median(recovers), "s")
	set("stored_bytes_per_user_byte", float64(imageBytes)/float64(userBytes), "B/B")
	if err != nil {
		return nil, err
	}

	rep.Samples["setup_s"] = summarize(setups)
	rep.Samples["recover_s"] = summarize(recovers)
	rep.Sizes = map[string]int64{
		"store_file_bytes":   e.fileBytes,
		"page_budget_bytes":  e.pageBudget,
		"cache_budget_bytes": e.cacheBudget,
		"image_bytes":        imageBytes,
		"user_bytes":         userBytes,
		"window_ops":         int64(win.ops),
		"acked_writes":       int64(len(acks)),
		"verified_reads":     int64(len(reads)),
	}
	if d.sci != nil {
		rep.Sizes["versions"] = int64(len(d.sci.versions))
		rep.Sizes["records"] = d.sci.records
		rep.Sizes["rows_per_version"] = int64(len(d.sci.versions[0].rows))
	}
	rep.Attempted, rep.Failed, rep.Failures = total.attempted, total.failed, total.msgs
	rep.Correct = total.failed == 0
	return rep, nil
}
