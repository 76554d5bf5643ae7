package orpheusdb

import (
	"context"

	"orpheusdb/internal/core"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/wal"
)

// Observability. Every Store owns one metrics registry and one tracer
// (per-store rather than process-global, so tests and embedded multi-store
// processes never collide on metric names). The versioned operations —
// checkout, commit, merge, SQL — observe latency histograms on the hot path
// with a single atomic add; everything that already keeps its own counters
// (engine I/O stats, the checkout cache, the WAL) is exported through
// scrape-time collector functions instead of mirrored writes. The HTTP layer
// serves the registry on GET /metrics and the tracer's slow-trace ring on
// GET /debug/traces.

// storeObs bundles the store's observability handles. Built once in
// newStore, then read-only.
type storeObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	// core carries the histogram handles the CVDs observe into
	// (checkout hit/miss, commit).
	core *core.Metrics

	lockWaitRead, lockWaitWrite *obs.Histogram

	mergeSeconds            *obs.Histogram
	sqlParseSeconds         *obs.Histogram
	sqlExecSeconds          *obs.Histogram
	walAppendBytes          *obs.Histogram
	walFsyncSeconds         *obs.Histogram
	partitionMigrateSeconds *obs.Histogram
}

func newStoreObs() *storeObs {
	reg := obs.NewRegistry()
	checkout := reg.HistogramVec("orpheus_checkout_seconds",
		"Checkout latency by cache outcome (single- and multi-version).",
		obs.LatencyBuckets, "result")
	lockWait := reg.HistogramVec("orpheus_dataset_lock_wait_seconds",
		"Time spent waiting for a dataset's lock: read = checkouts, diffs, queries and other reads; write = commits, merges, branch changes, drops and migration batches (writer-mutex wait plus install-lock wait).",
		obs.LatencyBuckets, "mode")
	return &storeObs{
		reg:    reg,
		tracer: obs.NewTracer(64, 64, obs.DefaultSlowThreshold),
		core: &core.Metrics{
			CheckoutHit:  checkout.With("hit"),
			CheckoutMiss: checkout.With("miss"),
			Commit: reg.Histogram("orpheus_commit_seconds",
				"Core commit latency: record hash matching (plan) plus model write and version metadata (install), WAL append excluded.",
				obs.LatencyBuckets),
		},
		lockWaitRead:  lockWait.With("read"),
		lockWaitWrite: lockWait.With("write"),
		mergeSeconds: reg.Histogram("orpheus_merge_seconds",
			"Three-way merge latency: LCA discovery, bitmap formula, merge commit.",
			obs.LatencyBuckets),
		sqlParseSeconds: reg.Histogram("orpheus_sql_parse_seconds",
			"SQL parse latency.", obs.LatencyBuckets),
		sqlExecSeconds: reg.Histogram("orpheus_sql_execute_seconds",
			"SQL execution latency (version resolution and engine run, parse excluded).",
			obs.LatencyBuckets),
		walAppendBytes: reg.Histogram("orpheus_wal_append_bytes",
			"Framed size of WAL appends.", obs.SizeBuckets),
		walFsyncSeconds: reg.Histogram("orpheus_wal_fsync_seconds",
			"WAL fsync latency (per-append under the always policy, background under interval).",
			obs.LatencyBuckets),
		partitionMigrateSeconds: reg.Histogram("orpheus_partition_migrate_seconds",
			"End-to-end latency of one repartitioning (plan + all batches).",
			obs.LatencyBuckets),
	}
}

// registerCollectors exports the store's pre-existing counters — engine I/O
// stats, checkout-cache stats, WAL watermarks — as scrape-time collector
// functions. Called once from newStore, after the Store is assembled, since
// the closures capture s.
func (s *Store) registerCollectors() {
	reg := s.obs.reg
	stats := s.db.Stats()
	counter := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	gauge := func(name, help string, v func() int64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(v()) })
	}

	counter("orpheus_engine_seq_pages_total", "Pages fetched by sequential scans.", stats.SeqPages.Load)
	counter("orpheus_engine_rand_pages_total", "Pages fetched by random access (index probes).", stats.RandPages.Load)
	counter("orpheus_engine_rows_scanned_total", "Rows materialized from pages.", stats.RowsScanned.Load)
	counter("orpheus_engine_index_probes_total", "Index lookups performed.", stats.IndexProbes.Load)
	counter("orpheus_engine_hash_builds_total", "Rows inserted into transient hash tables.", stats.HashBuilds.Load)
	counter("orpheus_checkpoints_total", "Snapshot checkpoints taken.", stats.Checkpoints.Load)
	counter("orpheus_checkpoint_bytes_total", "Cumulative bytes written by checkpoints.", stats.CheckpointBytes.Load)
	counter("orpheus_branch_creates_total", "Branches created.", stats.BranchCreates.Load)
	counter("orpheus_merges_total", "Merges attempted.", stats.Merges.Load)
	counter("orpheus_merge_conflicts_total", "Record-level merge conflicts detected.", stats.MergeConflicts.Load)

	counter("orpheus_partition_migrations_total", "Repartitionings executed (manual, triggered and drift-driven).", stats.PartitionMigrations.Load)
	counter("orpheus_partition_batches_total", "Migration batches applied (each one brief critical section).", stats.PartitionBatches.Load)
	counter("orpheus_partition_rows_moved_total", "Records inserted or deleted by migration batches.", stats.PartitionRowsMoved.Load)
	gauge("orpheus_partition_optimizer_running", "1 while the background partition optimizer is started.", func() int64 {
		if s.optimizer.Load() != nil {
			return 1
		}
		return 0
	})

	counter("orpheus_cache_hits_total", "Checkout-cache hits.", func() int64 { return s.cache.Stats().Hits })
	counter("orpheus_cache_misses_total", "Checkout-cache misses.", func() int64 { return s.cache.Stats().Misses })
	counter("orpheus_cache_evictions_total", "Checkout-cache evictions under byte-budget pressure.", func() int64 { return s.cache.Stats().Evictions })
	counter("orpheus_cache_invalidations_total", "Checkout-cache invalidations: commits, merges, migration batches, schema changes, drops and flushes.", func() int64 { return s.cache.Stats().Invalidations })
	gauge("orpheus_cache_entries", "Entries resident in the checkout cache.", func() int64 { return int64(s.cache.Stats().Entries) })
	gauge("orpheus_cache_bytes", "Bytes resident in the checkout cache.", func() int64 { return s.cache.Stats().Bytes })
	gauge("orpheus_cache_budget_bytes", "Checkout-cache byte budget.", func() int64 { return s.cache.Stats().Budget })
	counter("orpheus_page_faults_total", "Record pages the disk backend's pager read in from the store file.", stats.PageFaults.Load)
	counter("orpheus_page_evictions_total", "Record pages the pager dropped to stay within its budget.", stats.PageEvictions.Load)

	gauge("orpheus_wal_enabled", "1 when a write-ahead log is attached.", func() int64 {
		if s.WALEnabled() {
			return 1
		}
		return 0
	})
	gauge("orpheus_wal_applied_lsn", "Last mutation both applied and logged.", func() int64 { return int64(s.db.WalLSN()) })
	gauge("orpheus_wal_checkpoint_lsn", "Watermark covered by the last successful checkpoint.", func() int64 { return int64(s.ckptLSN.Load()) })

	gauge("orpheus_datasets", "CVDs registered in the store.", func() int64 { return int64(len(s.List())) })
	counter("orpheus_slow_traces_total", "Traces that crossed the slow-operation threshold.", s.obs.tracer.SlowCount)
}

// Metrics returns the store's metrics registry — the HTTP layer serves it on
// GET /metrics, and embedders can register their own metrics on it.
func (s *Store) Metrics() *obs.Registry { return s.obs.reg }

// Tracer returns the store's request tracer (slow-operation threshold,
// /debug/traces snapshots).
func (s *Store) Tracer() *obs.Tracer { return s.obs.tracer }

// logMutationCtx is logMutation under a trace: the WAL append (fsync
// included, policy permitting) contributes a "wal.append" span.
func (s *Store) logMutationCtx(ctx context.Context, rec *wal.Record) error {
	if s.wal == nil {
		return nil
	}
	_, span := obs.StartSpan(ctx, "wal.append")
	err := s.logMutation(rec)
	span.End()
	return err
}
