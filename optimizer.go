package orpheusdb

import (
	"fmt"
	"sync"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/core"
	"orpheusdb/internal/partition"
)

// Background partition optimizer ("live LYRESPLIT", Section 4.3 under
// traffic). A store-owned goroutine observes every commit into a per-dataset
// partition.Online instance, and when the observed checkout cost drifts past
// µ times the best cost LYRESPLIT can achieve under the storage budget, it
// repartitions the dataset through the same executor manual optimizes use
// (repartition.go): bounded batches, one brief critical section and one
// optimize-migrate WAL record each, checkouts running in between.

// PartitionOptimizerConfig tunes the background optimizer. The zero value of
// any field selects its default.
type PartitionOptimizerConfig struct {
	// GammaFactor sets the storage budget γ = GammaFactor·|R|. Default 2.
	GammaFactor float64
	// Mu is the drift trigger: migrate when Cavg > Mu·C*avg. Mu = 0 keeps
	// the optimizer observing without ever migrating on its own (manual
	// triggers still work). Default 2 — set MuDisabled for observe-only.
	Mu float64
	// BatchRows bounds the records a single migration batch inserts or
	// deletes, and therefore how long the per-batch critical section holds
	// the dataset lock. Default 4096.
	BatchRows int64
	// RecomputeEvery refreshes C*avg every that many observed commits.
	// Default 16.
	RecomputeEvery int
	// Interval is the fallback sweep period when no commit notifications
	// arrive (e.g. after WAL replay). Default 30s.
	Interval time.Duration
}

// MuDisabled is a sentinel for PartitionOptimizerConfig.Mu requesting
// observe-only mode (the config treats Mu = 0 as "use the default").
const MuDisabled = -1

func (c PartitionOptimizerConfig) withDefaults() PartitionOptimizerConfig {
	if c.GammaFactor == 0 {
		c.GammaFactor = 2
	}
	switch c.Mu {
	case 0:
		c.Mu = 2
	case MuDisabled:
		c.Mu = 0
	}
	if c.BatchRows == 0 {
		c.BatchRows = defaultBatchRows
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 16
	}
	if c.Interval == 0 {
		c.Interval = 30 * time.Second
	}
	return c
}

// PartitionOptimizer is the running background optimizer. One per store,
// started with Store.StartPartitionOptimizer.
type PartitionOptimizer struct {
	store *Store
	cfg   PartitionOptimizerConfig

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	states map[string]*optimizerState
}

// optimizerState is the optimizer's per-dataset bookkeeping. Guarded by
// PartitionOptimizer.mu except where noted.
type optimizerState struct {
	// onlineMu guards every access to online: the sweep goroutine drives it
	// (ObserveCommit / SetAccessWeights / Drifted) while Status reads its
	// counters from API goroutines. partition.Online itself is
	// single-threaded by contract, so the lock lives here at the sharing
	// boundary.
	onlineMu sync.Mutex
	online   *partition.Online
	// observed counts the prefix of the dataset's version order already fed
	// into online.
	observed int

	migrations int64
	batches    int64
	rowsMoved  int64
	lastRun    time.Time
	lastReason string
	lastErr    string

	// Last sweep's drift inputs: the (possibly heat-weighted) current
	// checkout cost and whether it crossed the µ trigger.
	lastCavg     float64
	lastDrifted  bool
	lastWeighted bool
}

// PartitionOptimizerStatus is one dataset's optimizer view, served on
// GET /api/v1/datasets/{name}/partitioning.
type PartitionOptimizerStatus struct {
	Running         bool    `json:"running"`
	GammaFactor     float64 `json:"gamma_factor,omitempty"`
	Mu              float64 `json:"mu"`
	BatchRows       int64   `json:"batch_rows,omitempty"`
	CommitsObserved int     `json:"commits_observed"`
	BestCavg        float64 `json:"best_avg_checkout_records"`
	DeltaStar       float64 `json:"delta_star"`
	Migrations      int64   `json:"migrations"`
	Batches         int64   `json:"batches"`
	RowsMoved       int64   `json:"rows_moved"`
	LastRun         string  `json:"last_run,omitempty"`
	LastReason      string  `json:"last_reason,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
	// Last sweep's drift decision: the current checkout cost fed into the µ
	// trigger (heat-weighted when access weights were observed), and whether
	// it crossed it.
	Cavg           float64 `json:"avg_checkout_records"`
	Drifted        bool    `json:"drifted"`
	AccessWeighted bool    `json:"access_weighted"`
}

// StartPartitionOptimizer launches the store's background partition
// optimizer. At most one runs per store; starting a second is an error.
// The returned handle is also reachable via Store.PartitionOptimizer.
func (s *Store) StartPartitionOptimizer(cfg PartitionOptimizerConfig) (*PartitionOptimizer, error) {
	cfg = cfg.withDefaults()
	// Surface bad tunables now, not on the first observed commit: the
	// goroutine has no caller to report to.
	probe := partition.NewOnline(cfg.GammaFactor, cfg.Mu)
	probe.RecomputeEvery = cfg.RecomputeEvery
	if err := probe.Validate(); err != nil {
		return nil, fmt.Errorf("orpheusdb: partition optimizer: %w", err)
	}
	o := &PartitionOptimizer{
		store:  s,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		states: make(map[string]*optimizerState),
	}
	if !s.optimizer.CompareAndSwap(nil, o) {
		return nil, fmt.Errorf("orpheusdb: partition optimizer already running")
	}
	go o.loop()
	return o, nil
}

// PartitionOptimizer returns the running optimizer, or nil.
func (s *Store) PartitionOptimizer() *PartitionOptimizer {
	return s.optimizer.Load()
}

// wakeOptimizer pings the optimizer after a commit. Non-blocking: a full
// wake channel means a sweep is already pending.
func (s *Store) wakeOptimizer() {
	if o := s.optimizer.Load(); o != nil {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
}

// Stop shuts the optimizer down and waits for its goroutine to exit. Any
// in-flight migration finishes its current batch sequence first.
func (o *PartitionOptimizer) Stop() {
	close(o.stop)
	<-o.done
	o.store.optimizer.CompareAndSwap(o, nil)
}

// Config returns the optimizer's effective (defaulted) configuration.
func (o *PartitionOptimizer) Config() PartitionOptimizerConfig { return o.cfg }

func (o *PartitionOptimizer) loop() {
	defer close(o.done)
	t := time.NewTicker(o.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-o.wake:
		case <-t.C:
		}
		o.sweep()
	}
}

// sweep feeds unobserved commits of every partitioned dataset into its
// Online instance and migrates any dataset whose cost has drifted.
func (o *PartitionOptimizer) sweep() {
	for _, name := range o.store.List() {
		select {
		case <-o.stop:
			return
		default:
		}
		o.sweepDataset(name)
	}
}

// state returns (creating on first use) the per-dataset bookkeeping.
func (o *PartitionOptimizer) state(name string) *optimizerState {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.states[name]
	if !ok {
		online := partition.NewOnline(o.cfg.GammaFactor, o.cfg.Mu)
		online.RecomputeEvery = o.cfg.RecomputeEvery
		st = &optimizerState{online: online}
		o.states[name] = st
	}
	return st
}

func (o *PartitionOptimizer) sweepDataset(name string) {
	d, err := o.store.Dataset(name)
	if err != nil {
		return
	}
	st := o.state(name)

	// Collect the unobserved suffix of the commit order under the read
	// lock: version ids, parents, and the persisted lineage bitmaps.
	type feed struct {
		v       VersionID
		parents []VersionID
		set     *bitmap.Bitmap
	}
	d.rlock()
	vids := d.cvd.Versions()
	var feeds []feed
	for _, v := range vids[st.observed:] {
		info, ierr := d.cvd.Info(v)
		if ierr != nil {
			continue
		}
		set, serr := d.cvd.RlistSet(v)
		if serr != nil {
			continue
		}
		feeds = append(feeds, feed{v: v, parents: info.Parents, set: set})
	}
	status := d.cvd.PartitionStatus()
	// Observed access heat: when traffic has been recorded, drift is judged
	// on the weighted checkout cost (Appendix C.2) instead of the paper's
	// uniform assumption. The weighted current cost must come from the same
	// lock acquisition as status, so both describe one layout.
	weights := d.cvd.Heat().Weights()
	var weightedCavg float64
	if weights != nil {
		weightedCavg = d.cvd.WeightedCheckoutCost(weights)
	}
	d.mu.RUnlock()

	st.onlineMu.Lock()
	for _, f := range feeds {
		if err := st.online.ObserveCommit(f.v, f.parents, f.set); err != nil {
			st.onlineMu.Unlock()
			o.recordErr(st, err)
			return
		}
	}
	st.online.SetAccessWeights(weights)
	st.onlineMu.Unlock()

	if status == nil {
		o.mu.Lock()
		st.observed = len(vids)
		o.mu.Unlock()
		return
	}
	cavg := status.CheckoutCost
	if weights != nil {
		cavg = weightedCavg
	}
	st.onlineMu.Lock()
	drifted := st.online.Drifted(cavg)
	st.onlineMu.Unlock()
	o.mu.Lock()
	st.observed = len(vids)
	st.lastCavg = cavg
	st.lastDrifted = drifted
	st.lastWeighted = weights != nil
	o.mu.Unlock()

	if !drifted {
		return
	}
	_, _ = o.migrate(d, st, "drift") // a failure is booked in st.lastErr
}

func (o *PartitionOptimizer) recordErr(st *optimizerState, err error) {
	o.mu.Lock()
	st.lastErr = err.Error()
	o.mu.Unlock()
}

// Trigger replans and migrates the named dataset immediately, regardless of
// the drift trigger — the manual path behind
// POST /api/v1/datasets/{name}/partitioning.
func (o *PartitionOptimizer) Trigger(name string) (*MigrationReport, error) {
	d, err := o.store.Dataset(name)
	if err != nil {
		return nil, err
	}
	return o.migrate(d, o.state(name), "manual")
}

// migrate runs one repartitioning of d through the dataset's executor under
// the optimizer's tunables, and books the outcome in the per-dataset state.
func (o *PartitionOptimizer) migrate(d *Dataset, st *optimizerState, reason string) (*MigrationReport, error) {
	rep, err := d.repartition(reason, o.stop, func(c *core.CVD) (*core.RepartitionPlan, error) {
		return c.PlanRepartition(o.cfg.GammaFactor, o.cfg.BatchRows)
	})
	if err != nil {
		o.recordErr(st, err)
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	st.migrations++
	st.batches += int64(rep.Batches)
	st.rowsMoved += rep.RowsMoved
	st.lastRun = time.Now()
	st.lastReason = reason
	st.lastErr = ""
	return rep, nil
}

// Status reports the optimizer's view of one dataset.
func (o *PartitionOptimizer) Status(name string) PartitionOptimizerStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := PartitionOptimizerStatus{
		Running:     true,
		GammaFactor: o.cfg.GammaFactor,
		Mu:          o.cfg.Mu,
		BatchRows:   o.cfg.BatchRows,
	}
	st, ok := o.states[name]
	if !ok {
		return out
	}
	st.onlineMu.Lock()
	out.CommitsObserved = st.online.Commits()
	out.BestCavg = st.online.BestCheckoutCost()
	out.DeltaStar = st.online.DeltaStar()
	st.onlineMu.Unlock()
	out.Migrations = st.migrations
	out.Batches = st.batches
	out.RowsMoved = st.rowsMoved
	out.LastReason = st.lastReason
	out.LastError = st.lastErr
	out.Cavg = st.lastCavg
	out.Drifted = st.lastDrifted
	out.AccessWeighted = st.lastWeighted
	if !st.lastRun.IsZero() {
		out.LastRun = st.lastRun.UTC().Format(time.RFC3339Nano)
	}
	return out
}

// PartitionOptimizerHealth is the optimizer's store-wide health summary,
// served on /healthz: a silently failing optimizer must not look healthy.
type PartitionOptimizerHealth struct {
	Running    bool   `json:"running"`
	Datasets   int    `json:"datasets_observed"`
	Migrations int64  `json:"migrations"`
	LastRun    string `json:"last_run,omitempty"`
	// LastError is the most recent unrecovered per-dataset error, with the
	// dataset it came from.
	LastError        string `json:"last_error,omitempty"`
	LastErrorDataset string `json:"last_error_dataset,omitempty"`
}

// Health aggregates the per-dataset optimizer states for /healthz.
func (o *PartitionOptimizer) Health() PartitionOptimizerHealth {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := PartitionOptimizerHealth{Running: true, Datasets: len(o.states)}
	var lastRun time.Time
	for name, st := range o.states {
		out.Migrations += st.migrations
		if st.lastRun.After(lastRun) {
			lastRun = st.lastRun
		}
		if st.lastErr != "" {
			out.LastError = st.lastErr
			out.LastErrorDataset = name
		}
	}
	if !lastRun.IsZero() {
		out.LastRun = lastRun.UTC().Format(time.RFC3339Nano)
	}
	return out
}
