package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/core"
	"orpheusdb/internal/engine/diskv"
	"orpheusdb/internal/sql"
	"orpheusdb/internal/vgraph"
	"orpheusdb/internal/wal"
)

// layerMetric is one per-layer metric: BENCHMARK.json lists them with name,
// unit and direction, and README.md says which end-to-end metric each should
// move. A metric a workload does not exercise reads 0 there.
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	{"server.transport_ms", "ms", "lower"},
	{"server.checkout_self_ms", "ms", "lower"},
	{"server.commit_self_ms", "ms", "lower"},
	{"server.response_bytes_per_op", "B", "lower"},
	{"store.checkout_ms", "ms", "lower"},
	{"store.commit_ms", "ms", "lower"},
	{"store.contention_ms.checkout", "ms", "lower"},
	{"store.contention_ms.commit", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.invalidations", "count", "lower"},
	{"cache.bytes_resident", "B", "lower"},
	{"core.checkout_uncached_ms", "ms", "lower"},
	{"core.commit_ms", "ms", "lower"},
	{"core.diff_ms", "ms", "lower"},
	{"core.rows_scanned_per_row_returned", "ratio", "lower"},
	{"bitmap.resolve_us", "us", "lower"},
	{"bitmap.membership_bytes", "B", "lower"},
	{"engine.seq_pages_per_checkout", "pages", "lower"},
	{"engine.rand_pages_per_checkout", "pages", "lower"},
	{"engine.page_faults_per_cold_checkout", "pages", "lower"},
	{"engine.evictions_per_fault", "ratio", "lower"},
	{"engine.resident_bytes_peak", "B", "lower"},
	{"engine.pages_flushed", "count", "lower"},
	{"engine.checkpoints", "count", "lower"},
	{"engine.checkpoint_bytes", "B", "lower"},
	{"engine.checkpoint_ms", "ms", "lower"},
	{"diskv.get_us", "us", "lower"},
	{"diskv.commit_ms", "ms", "lower"},
	{"diskv.file_bytes", "B", "lower"},
	{"diskv.garbage_bytes", "B", "lower"},
	{"diskv.bytes_written_per_user_byte", "B/B", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.fsync_us", "us", "lower"},
	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.bytes_per_user_byte", "B/B", "lower"},
	{"wal.segments", "count", "lower"},
	{"wal.replay_records_per_s", "1/s", "higher"},
	{"sql.parse_us", "us", "lower"},
	{"sql.run_ms", "ms", "lower"},
	{"merge.merge_ms", "ms", "lower"},
	{"merge.conflicts", "count", "lower"},
	{"partition.plan_ms", "ms", "lower"},
	{"partition.migrate_ms", "ms", "lower"},
	{"partition.batches", "count", "lower"},
	{"partition.rows_moved", "count", "lower"},
	{"partition.count", "count", "lower"},
	{"partition.storage_amplification", "ratio", "lower"},
	{"partition.cavg_records", "count", "lower"},
	{"proc.alloc_mb_per_op", "MB", "lower"},
	{"proc.peak_heap_mb", "MB", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.cpu_s_per_op", "s", "lower"},
}

var (
	checkoutClasses = []string{classHot, classCold, classPair}
	commitClasses   = []string{classCommit}
)

// depthSamples holds the traced phase's latencies by class and depth.
type depthSamples map[string]*[numDepths]samples

func (ds depthSamples) add(class string, d depth, v float64) {
	if ds[class] == nil {
		ds[class] = new([numDepths]samples)
	}
	ds[class][d] = append(ds[class][d], v)
}

// at pools the classes' samples at one depth.
func (ds depthSamples) at(classes []string, d depth) samples {
	var out samples
	for _, c := range classes {
		if ds[c] != nil {
			out = append(out, ds[c][d]...)
		}
	}
	return out
}

// self is the time the layer between two adjacent depths adds: per class,
// the upper depth's median minus the lower's, averaged over the classes by
// their sample counts. No op runs twice; the rotation gives each depth its
// own share of every class. It is 0 when no class has samples at both.
func (ds depthSamples) self(classes []string, upper, lower depth) float64 {
	var sum, weight float64
	for _, c := range classes {
		if ds[c] == nil || len(ds[c][upper]) == 0 || len(ds[c][lower]) == 0 {
			continue
		}
		w := float64(len(ds[c][upper]) + len(ds[c][lower]))
		sum += w * (median(ds[c][upper]) - median(ds[c][lower]))
		weight += w
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced is the traced run: every per-layer metric of one workload. It
// has three parts. A short stretch with all clients gives the contended
// latencies. Then one client alone runs the same schedule with each op
// entering at the next depth in turn, under spans and counter deltas. Last,
// the layers' public functions are called directly for the figures no
// request isolates.
func runTraced(cfg runConfig) (*report, error) {
	sp := cfg.sp
	rep := &report{Workload: sp.name, Seed: cfg.seed, Scale: cfg.scale, Clients: cfg.clients, Seconds: cfg.seconds, Traced: true,
		Metrics: map[string]metric{}, Samples: map[string]summary{}, Sizes: map[string]int64{}}
	var total tally
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	d := generate(sp, cfg.seed, cfg.scale)
	e, err := setUp(sp, d, filepath.Join(cfg.work, "setup"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.crash()
	cs := newClients(cfg.clients, e, d, cfg.seed, cfg.scale)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	if sp.wal {
		fx, err := fixture(cs)
		total.merge(fx.tally)
		if err != nil {
			return nil, err
		}
	}
	// Checkpoints happen only where this run asks for one, so that the
	// counter deltas of an op are that op's.
	e.store.SetSaveDelay(never)

	window := time.Duration(cfg.seconds * float64(time.Second))
	total.merge(drive(cs, window/20, 0, nil).tally)
	crowd := drive(cs, window*3/10, 0, nil)
	total.merge(crowd.tally)

	// The traced phase.
	tr := newTracer()
	c := cs[0]
	c.tr = tr
	lat := depthSamples{}
	var (
		sumByClass            = map[string]counters{}
		nByClass              = map[string]int{}
		all                   counters
		ops                   int
		respBytes, respOps    int64
		userBytes             int64
		walBytes, walCommits  int64
		residentPeak, heapMax int64
		mem                   runtime.MemStats
	)
	runtime.ReadMemStats(&mem)
	alloc0, cpu0 := mem.TotalAlloc, cpuSeconds()
	cache0 := e.store.CacheStats()
	deadline := time.Now().Add(window / 2)
	for i := 0; time.Now().Before(deadline); i++ {
		o := c.next()
		dep := depth(i % int(numDepths))
		if dep == depthCore && (o.kind == opCommit || o.kind == opMerge || o.kind == opQuery) {
			// Writes below the store would skip the log, and SQL has no
			// entry below it: these rotate through three depths.
			dep = depth(i % int(depthCore))
		}
		before := readCounters(e.store)
		root := tr.beginOp(i, o.class, dep)
		took, out, err := c.do(o, dep, true)
		delta := readCounters(e.store).minus(before)
		root.endWith(delta)
		if err == nil && out.check != nil {
			err = out.check()
		}
		if !total.try(err) {
			continue
		}
		c.done(o, out.snap)
		ops++
		lat.add(o.class, dep, ms(took))
		sumByClass[o.class] = sumByClass[o.class].plus(delta)
		nByClass[o.class]++
		all = all.plus(delta)
		if dep <= depthHandler {
			respBytes += int64(out.bytes)
			respOps++
		}
		userBytes += out.userBytes
		if o.kind == opCommit && delta.WALBytes > 0 {
			walBytes += delta.WALBytes
			walCommits++
		}
		if r := e.store.DB().ResidentBytes(); r > residentPeak {
			residentPeak = r
		}
		if i%64 == 0 {
			runtime.ReadMemStats(&mem)
			if h := int64(mem.HeapInuse); h > heapMax {
				heapMax = h
			}
		}
	}
	runtime.ReadMemStats(&mem)
	if h := int64(mem.HeapInuse); h > heapMax {
		heapMax = h
	}
	allocMB := float64(mem.TotalAlloc-alloc0) / (1 << 20)
	cpu := cpuSeconds() - cpu0
	cache1 := e.store.CacheStats()
	c.tr = nil
	if ops == 0 {
		return nil, fmt.Errorf("traced phase completed no op")
	}

	m := map[string]float64{}
	m["server.transport_ms"] = lat.self(allClasses(lat), depthTCP, depthHandler)
	m["server.checkout_self_ms"] = lat.self(checkoutClasses, depthHandler, depthStore)
	m["server.commit_self_ms"] = lat.self(commitClasses, depthHandler, depthStore)
	m["server.response_bytes_per_op"] = ratio(float64(respBytes), float64(respOps))
	m["store.checkout_ms"] = medianOrZero(lat.at(checkoutClasses, depthStore))
	m["store.commit_ms"] = medianOrZero(lat.at(commitClasses, depthStore))
	contention := func(classes []string) float64 {
		var crowded samples
		for _, cl := range classes {
			crowded = append(crowded, crowd.lat[cl]...)
		}
		alone := lat.at(classes, depthTCP)
		if len(crowded) == 0 || len(alone) == 0 {
			return 0
		}
		return median(crowded) - median(alone)
	}
	m["store.contention_ms.checkout"] = contention(checkoutClasses)
	m["store.contention_ms.commit"] = contention(commitClasses)
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions"] = float64(all.CacheEvict)
	m["cache.invalidations"] = float64(all.CacheInval)
	m["cache.bytes_resident"] = float64(cache1.Bytes)
	var co counters
	var coN int
	for _, cl := range checkoutClasses {
		co = co.plus(sumByClass[cl])
		coN += nByClass[cl]
	}
	m["engine.seq_pages_per_checkout"] = ratio(float64(co.SeqPages), float64(coN))
	m["engine.rand_pages_per_checkout"] = ratio(float64(co.RandPages), float64(coN))
	m["engine.page_faults_per_cold_checkout"] = ratio(float64(sumByClass[classCold].PageFaults), float64(nByClass[classCold]))
	m["engine.evictions_per_fault"] = ratio(float64(all.PageEvictions), float64(all.PageFaults))
	m["engine.resident_bytes_peak"] = float64(residentPeak)
	m["core.diff_ms"] = medianOrZero(lat.at([]string{classDiff}, depthCore))
	m["sql.run_ms"] = medianOrZero(lat.at([]string{classQuery}, depthStore))
	m["merge.merge_ms"] = medianOrZero(lat.at([]string{classMerge}, depthStore))
	m["merge.conflicts"] = float64(all.Conflicts)
	m["wal.bytes_per_commit"] = ratio(float64(walBytes), float64(walCommits))
	m["wal.bytes_per_user_byte"] = ratio(float64(walBytes), float64(userBytes))
	m["diskv.bytes_written_per_user_byte"] = 0 // set after the checkpoint below
	m["proc.alloc_mb_per_op"] = allocMB / float64(ops)
	m["proc.peak_heap_mb"] = float64(heapMax) / (1 << 20)
	m["proc.cpu_s_per_op"] = cpu / float64(ops)

	// Direct calls into the layers.
	if err := probeLayers(cfg, e, c, tr, m, userBytes); err != nil {
		return nil, err
	}
	m["core.commit_ms"] = 0
	if m["store.commit_ms"] > 0 {
		m["core.commit_ms"] = m["store.commit_ms"] - m["wal.append_us"]/1000
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	m["proc.gc_pause_ms_total"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6

	if err := tr.write(filepath.Join(cfg.out, "trace-"+sp.name+".jsonl")); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		rep.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
	}
	for class, byDepth := range lat {
		for dep, v := range byDepth {
			if len(v) > 0 {
				rep.Samples[class+"@"+depth(dep).String()+"_ms"] = summarize(v)
			}
		}
	}
	for class, v := range crowd.lat {
		rep.Samples[class+"@crowd_ms"] = summarize(v)
	}
	rep.Sizes = map[string]int64{
		"store_file_bytes":   e.fileBytes,
		"page_budget_bytes":  e.pageBudget,
		"cache_budget_bytes": e.cacheBudget,
		"traced_ops":         int64(ops),
		"spans":              int64(len(tr.spans)),
	}
	rep.Attempted, rep.Failed, rep.Failures = total.attempted, total.failed, total.msgs
	rep.Correct = total.failed == 0
	return rep, nil
}

func allClasses(ds depthSamples) []string {
	out := make([]string, 0, len(ds))
	for c := range ds {
		out = append(out, c)
	}
	return out
}

// timeIt runs fn n times under spans and returns the durations in the unit
// given (time.Millisecond or time.Microsecond).
func timeIt(tr *tracer, name string, n int, unit time.Duration, fn func(i int) error) (samples, error) {
	var out samples
	for i := 0; i < n; i++ {
		sp := tr.start(name)
		t0 := time.Now()
		err := fn(i)
		dt := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, float64(dt)/float64(unit))
	}
	return out, nil
}

// probeLayers calls each layer's public functions directly, on the store as
// the traced phase left it, for the figures no request isolates.
func probeLayers(cfg runConfig, e *env, c *client, tr *tracer, m map[string]float64, userBytes int64) error {
	st := e.store
	// The versions the probes read: Zipf draws, like the requests.
	var picks []*snapshot
	for i := 0; i < 48; i++ {
		s, _ := c.pickRead()
		picks = append(picks, s)
	}
	handle := func(s *snapshot) (*orpheusdb.Dataset, error) { return st.Dataset(s.dataset) }

	// core: checkouts with the cache off, and what they scan.
	st.SetCacheBudget(0)
	before := readCounters(st)
	var returned int64
	v, err := timeIt(tr, "core.Checkout(uncached)", len(picks), time.Millisecond, func(i int) error {
		ds, err := handle(picks[i])
		if err != nil {
			return err
		}
		rows, err := ds.CVD().CheckoutCtx(bg, picks[i].vid)
		returned += int64(len(rows))
		return err
	})
	if err != nil {
		return err
	}
	scanned := readCounters(st).minus(before).RowsScanned
	st.SetCacheBudget(e.cacheBudget)
	m["core.checkout_uncached_ms"] = median(v)
	m["core.rows_scanned_per_row_returned"] = ratio(float64(scanned), float64(returned))

	// bitmap: resolving a version's membership, alone and intersected.
	v, err = timeIt(tr, "bitmap.resolve", len(picks), time.Microsecond, func(i int) error {
		ds, err := handle(picks[i])
		if err != nil {
			return err
		}
		if _, err := ds.CVD().RlistSet(picks[i].vid); err != nil {
			return err
		}
		other := picks[(i+1)%len(picks)]
		if other.dataset != picks[i].dataset {
			return nil
		}
		_, err = ds.CVD().MembershipSet([]vgraph.VersionID{picks[i].vid, other.vid}, []core.SetOp{core.SetOpIntersect})
		return err
	})
	if err != nil {
		return err
	}
	m["bitmap.resolve_us"] = median(v)
	var membership int64
	for _, name := range st.List() {
		ds, err := st.Dataset(name)
		if err != nil {
			return err
		}
		b := ds.StorageBreakdown()
		membership += b.MembershipBytes + b.SystemMembershipBytes
	}
	m["bitmap.membership_bytes"] = float64(membership)

	// sql: parsing alone.
	q := querySQL(&op{snaps: [2]*snapshot{picks[0], nil}, c: bRange / 2})
	v, err = timeIt(tr, "sql.Parse", 200, time.Microsecond, func(int) error {
		_, err := sql.Parse(q)
		return err
	})
	if err != nil {
		return err
	}
	m["sql.parse_us"] = median(v)

	// partition: planning, the layout, and on the workload that runs the
	// optimizer one live migration.
	first, err := handle(picks[0])
	if err != nil {
		return err
	}
	v, err = timeIt(tr, "partition.PlanRepartition", 3, time.Millisecond, func(int) error {
		_, err := first.CVD().PlanRepartition(2, 4096)
		return err
	})
	if err != nil {
		return err
	}
	m["partition.plan_ms"] = median(v)
	m["partition.migrate_ms"], m["partition.batches"], m["partition.rows_moved"] = 0, 0, 0
	if o := st.PartitionOptimizer(); o != nil {
		span := tr.start("partition.Trigger")
		mig, err := o.Trigger(first.Name())
		span.end()
		if err != nil {
			return fmt.Errorf("repartition: %w", err)
		}
		m["partition.migrate_ms"] = ms(mig.TotalTime)
		m["partition.batches"] = float64(mig.Batches)
		m["partition.rows_moved"] = float64(mig.RowsMoved)
	}
	if ps, ok := first.PartitionStatus(); ok {
		m["partition.count"] = float64(len(ps.Partitions))
		m["partition.storage_amplification"] = ratio(float64(ps.StorageRecords), float64(ps.TotalRecords))
		m["partition.cavg_records"] = ps.CheckoutCost
	}

	// engine: one checkpoint of what the traced phase dirtied.
	fileBefore := readCounters(st).FileBytes
	v, err = timeIt(tr, "store.Checkpoint", 1, time.Millisecond, func(int) error { return st.Checkpoint() })
	if err != nil {
		return err
	}
	after := readCounters(st)
	m["engine.checkpoint_ms"] = v[0]
	m["engine.pages_flushed"] = float64(after.PagesFlushed)
	m["engine.checkpoints"] = float64(after.Checkpoints)
	m["engine.checkpoint_bytes"] = float64(after.CkptBytes)
	m["wal.segments"] = float64(st.WALStatus().Segments)
	m["diskv.bytes_written_per_user_byte"] = ratio(float64(after.FileBytes-fileBefore), float64(userBytes))

	if err := probeWAL(cfg, e, c, tr, m); err != nil {
		return err
	}
	return probeDiskv(cfg, e, tr, m)
}

// probeWAL appends the workload's own commit record to a scratch log under
// both fsync policies, and times a replay of the real log.
func probeWAL(cfg runConfig, e *env, c *client, tr *tracer, m map[string]float64) error {
	for _, k := range []string{"wal.append_us", "wal.append_nosync_us", "wal.fsync_us", "wal.replay_records_per_s"} {
		m[k] = 0
	}
	if !cfg.sp.wal {
		return nil
	}
	head := c.pairs()[0].target
	ds, err := e.store.Dataset(head.dataset)
	if err != nil {
		return err
	}
	members, err := ds.CVD().RlistSet(head.vid)
	if err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.TypeCommit, Dataset: head.dataset, Msg: "c", Rows: head.rows,
		Parents: []int64{int64(head.vid)}, Version: int64(head.vid) + 1, TimeNanos: time.Now().UnixNano(), Members: members}
	for _, pol := range []struct {
		key    string
		policy wal.Policy
	}{{"wal.append_us", wal.PolicyAlways}, {"wal.append_nosync_us", wal.PolicyOff}} {
		dir := filepath.Join(cfg.work, "scratch-"+pol.policy.String())
		l, err := wal.Open(wal.Options{Dir: dir, Policy: pol.policy})
		if err != nil {
			return err
		}
		v, err := timeIt(tr, "wal.Append("+pol.policy.String()+")", 64, time.Microsecond, func(int) error {
			_, err := l.Append(rec)
			return err
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m[pol.key] = median(v)
	}
	m["wal.fsync_us"] = m["wal.append_us"] - m["wal.append_nosync_us"]

	// Replay: a few more commits past the checkpoint, a byte copy of the
	// unclosed store, and EnableWAL on it timed alone.
	for i := 0; i < 8; i++ {
		o := &op{kind: opCommit, class: classCommit, pair: c.pairs()[i%len(c.pairs())]}
		_, out, err := c.do(o, depthStore, false)
		if err != nil {
			return err
		}
		c.done(o, out.snap)
	}
	ws := e.store.WALStatus()
	records := ws.AppliedLSN - ws.CheckpointLSN
	img := filepath.Join(cfg.work, "replay")
	if _, err := e.image(img); err != nil {
		return err
	}
	st, err := orpheusdb.OpenStoreWithOptions(storePath(img), orpheusdb.StoreOptions{Backend: cfg.sp.backend, PageBudgetBytes: e.pageBudget})
	if err != nil {
		return err
	}
	st.SetSaveDelay(never)
	span := tr.start("store.EnableWAL(replay)")
	t0 := time.Now()
	err = st.EnableWAL(orpheusdb.WALConfig{Policy: orpheusdb.FsyncAlways})
	took := time.Since(t0)
	span.end()
	release(st)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m["wal.replay_records_per_s"] = float64(records) / took.Seconds()
	return nil
}

// probeDiskv opens a byte copy of the page file with the KV layer alone and
// times page reads and a commit.
func probeDiskv(cfg runConfig, e *env, tr *tracer, m map[string]float64) error {
	for _, k := range []string{"diskv.get_us", "diskv.commit_ms", "diskv.file_bytes", "diskv.garbage_bytes"} {
		m[k] = 0
	}
	if cfg.sp.backend != orpheusdb.BackendDisk {
		return nil
	}
	path := filepath.Join(cfg.work, "pages.odb")
	if _, err := copyFile(storePath(e.dir), path); err != nil {
		return err
	}
	kv, err := diskv.Open(path)
	if err != nil {
		return err
	}
	defer kv.Close()
	stats := kv.Stats()
	m["diskv.file_bytes"] = float64(stats.FileBytes)
	m["diskv.garbage_bytes"] = float64(stats.GarbageBytes)
	keys := kv.Keys("page/")
	if len(keys) == 0 {
		return fmt.Errorf("diskv: %s holds no page", path)
	}
	var page []byte
	v, err := timeIt(tr, "diskv.Get", 256, time.Microsecond, func(i int) error {
		val, ok, err := kv.Get(keys[(i*7919)%len(keys)])
		if err == nil && !ok {
			err = fmt.Errorf("page key vanished")
		}
		page = val
		return err
	})
	if err != nil {
		return err
	}
	m["diskv.get_us"] = median(v)
	v, err = timeIt(tr, "diskv.Put+Commit", 8, time.Millisecond, func(i int) error {
		if err := kv.Put(fmt.Sprintf("bench/scratch/%d", i), page); err != nil {
			return err
		}
		return kv.Commit()
	})
	if err != nil {
		return err
	}
	m["diskv.commit_ms"] = median(v)
	return nil
}
