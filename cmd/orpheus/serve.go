package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/server"
)

// cmdServe runs the store as a concurrent HTTP/JSON versioning service
// (`orpheus -d store.odb serve -addr :7077`). Commits are made durable
// through the write-ahead log (enabled by default, see -wal* and -fsync
// flags); snapshots happen as debounced checkpoints that also truncate the
// log, and the store flushes on shutdown. Observability comes built in:
// Prometheus metrics on GET /metrics, request traces on GET /debug/traces
// (slow-trace capture tuned by -slow), structured access logs leveled by
// -log-level, and Go's runtime profiler on /debug/pprof/ behind -pprof.
func cmdServe(store *orpheusdb.Store, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":7077", "listen address")
	quiet := fs.Bool("quiet", false, "disable request logging")
	logLevel := fs.String("log-level", "info", "access log level: debug|info|warn|error")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof profiles under /debug/pprof/")
	slow := fs.Duration("slow", 0, "slow-trace threshold (0 keeps the default)")
	saveDelay := fs.Duration("save-delay", orpheusdb.DefaultSaveDelay, "debounce interval for async checkpoints")
	walOn := fs.Bool("wal", true, "write-ahead log every mutation (crash recovery)")
	walDir := fs.String("wal-dir", "", "WAL segment directory (default <store>.wal)")
	fsync := fs.String("fsync", "interval", "WAL fsync policy: always|interval|off")
	fsyncEvery := fs.Duration("fsync-interval", 50*time.Millisecond, "background fsync cadence for -fsync=interval")
	segBytes := fs.Int64("wal-segment-bytes", 0, "rotate WAL segments past this size (default 16 MiB)")
	optimize := fs.Bool("optimize", false, "run the background partition optimizer")
	optGamma := fs.Float64("optimize-gamma", 2, "optimizer storage budget factor (γ = factor·|R|)")
	optMu := fs.Float64("optimize-mu", 2, "optimizer drift trigger µ (0 observes without migrating)")
	optBatch := fs.Int64("optimize-batch-rows", 4096, "max records a migration batch moves in one critical section")
	optEvery := fs.Int("optimize-recompute-every", 16, "refresh C*avg every N observed commits")
	optInterval := fs.Duration("optimize-interval", 30*time.Second, "fallback sweep period without commit traffic")
	history := fs.Bool("history", true, "retain metrics history (GET /api/v1/metrics/history, orpheus top)")
	histInterval := fs.Duration("history-interval", 10*time.Second, "finest history sampling cadence")
	histRetain := fs.Duration("history-retain", time.Hour, "retention at the finest cadence (a 1m/24h coarse tier rides along)")
	// Consumed by main before the store opened (the engine is chosen at
	// open); declared here so parsing accepts them and -h documents them.
	backend := fs.String("backend", "", "storage engine: memory|disk (applied at store open)")
	fs.Int64("page-budget", 0, "disk backend resident working-set cap in bytes (applied at store open)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backend != "" && string(store.BackendKind()) != *backend {
		return fmt.Errorf("serve: store opened with backend %q but -backend=%q requested", store.BackendKind(), *backend)
	}
	if store.BackendKind() == orpheusdb.BackendDisk {
		fmt.Fprintf(os.Stderr, "orpheus: disk backend %s (page budget %d bytes)\n",
			store.Path(), store.DB().PageBudget())
	}
	store.SetSaveDelay(*saveDelay)
	if !*walOn && !store.WALEnabled() && store.Path() != "" {
		// Serving without the WAL while a log exists would save snapshots
		// whose watermark never advances past the stale tail; the next
		// WAL-enabled open would then replay obsolete records over newer
		// state. Refuse rather than quietly poisoning the store.
		legacy := store.Path() + ".wal"
		if fi, err := os.Stat(legacy); err == nil && fi.IsDir() {
			return fmt.Errorf("serve: %s exists; serving with -wal=false would desync it from the snapshot (delete the log or drop the flag)", legacy)
		}
	}
	if *walOn && !store.WALEnabled() {
		if store.Path() == "" && *walDir == "" {
			return errors.New("serve: -wal needs -wal-dir for an in-memory store")
		}
		policy, err := orpheusdb.ParseFsyncPolicy(*fsync)
		if err != nil {
			return err
		}
		if err := store.EnableWAL(orpheusdb.WALConfig{
			Dir:          *walDir,
			Policy:       policy,
			SyncInterval: *fsyncEvery,
			SegmentBytes: *segBytes,
		}); err != nil {
			return fmt.Errorf("serve: enable WAL: %w", err)
		}
		st := store.WALStatus()
		fmt.Fprintf(os.Stderr, "orpheus: WAL %s (fsync=%s, applied LSN %d)\n", st.Dir, st.Policy, st.AppliedLSN)
	}

	if *optimize {
		mu := *optMu
		if mu == 0 {
			mu = orpheusdb.MuDisabled
		}
		opt, err := store.StartPartitionOptimizer(orpheusdb.PartitionOptimizerConfig{
			GammaFactor:    *optGamma,
			Mu:             mu,
			BatchRows:      *optBatch,
			RecomputeEvery: *optEvery,
			Interval:       *optInterval,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer opt.Stop()
		fmt.Fprintf(os.Stderr, "orpheus: partition optimizer on (gamma=%g mu=%g batch=%d)\n",
			*optGamma, *optMu, *optBatch)
	}

	if *history {
		tiers := []orpheusdb.HistoryTier{{Interval: *histInterval, Retain: *histRetain}}
		// A coarse day-long tier rides along whenever the configured cadence
		// is finer than a minute; otherwise the single tier is the history.
		if *histInterval < time.Minute {
			tiers = append(tiers, orpheusdb.HistoryTier{Interval: time.Minute, Retain: 24 * time.Hour})
		}
		if _, err := store.StartMetricsHistory(orpheusdb.HistoryOptions{Tiers: tiers}); err != nil {
			return fmt.Errorf("serve: metrics history: %w", err)
		}
		defer store.StopMetricsHistory()
	}

	if *slow > 0 {
		store.Tracer().SetSlowThreshold(*slow)
	}
	var logger *slog.Logger
	if !*quiet {
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("serve: bad -log-level %q: %w", *logLevel, err)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	var handler http.Handler = server.New(store, logger)
	if *pprofOn {
		// The API mux stays authoritative for everything else; only the
		// profiler prefix is diverted, and only when asked for — profiles
		// expose heap contents and should not be reachable by default.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		fmt.Fprintln(os.Stderr, "orpheus: pprof mounted on /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "orpheus: serving on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "orpheus: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	return nil // main closes the store: checkpoint, WAL, file
}
