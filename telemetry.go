package orpheusdb

import (
	"fmt"
	"os"

	"orpheusdb/internal/core"
	"orpheusdb/internal/obs"
)

// Workload telemetry: the per-dataset access heat tables and the retained
// metrics history. Heat is recorded by the CVDs themselves (core.Heat,
// attached next to the metrics handles); the history sampler is a
// store-owned goroutine snapshotting the registry into tiered rings, with
// its retained points persisted through the same checkpoint path as the
// engine snapshot (a `<path>.history` sidecar).

// HeatSnapshot re-exports the aggregated per-dataset heat table.
type HeatSnapshot = core.HeatSnapshot

// HistoryOptions and HistoryTier re-export the sampler configuration so
// embedders and the CLI need not import internal/obs.
type (
	HistoryOptions = obs.HistoryOptions
	HistoryTier    = obs.HistoryTier
)

// Heat returns the dataset's aggregated access-heat table: the topK hottest
// versions by checkout count, cache hit ratios, the sliding-window op rate,
// and per-branch checkout rates (recent accesses joined against each
// branch's lineage bitmap).
func (d *Dataset) Heat(topK int) (HeatSnapshot, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return HeatSnapshot{}, err
	}
	return d.cvd.Heat().Snapshot(topK, d.cvd.Branches()), nil
}

// HeatWeights returns the dataset's observed per-version checkout
// frequencies (nil when nothing was recorded) — the optimizer's drift
// weights.
func (d *Dataset) HeatWeights() map[VersionID]int64 {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.Heat().Weights()
}

// historySidecar is where the retained metrics history persists, next to the
// store file.
func (s *Store) historySidecar() string {
	if s.path == "" {
		return ""
	}
	return s.path + ".history"
}

// StartMetricsHistory launches the retained metrics sampler: a goroutine
// snapshotting every registry counter, gauge, and histogram digest into
// fixed rings at the configured retention tiers. For persistent stores, a
// prior run's sidecar (written by Checkpoint) is restored first, so history
// survives a restart. At most one history runs per store.
func (s *Store) StartMetricsHistory(opts obs.HistoryOptions) (*obs.History, error) {
	h, err := obs.NewHistory(s.obs.reg, opts)
	if err != nil {
		return nil, err
	}
	if sc := s.historySidecar(); sc != "" {
		if data, rerr := os.ReadFile(sc); rerr == nil {
			// Best-effort: a corrupt sidecar costs retained history, never
			// availability.
			_ = h.Restore(data)
		}
	}
	if !s.history.CompareAndSwap(nil, h) {
		return nil, fmt.Errorf("orpheusdb: metrics history already running")
	}
	h.Start()
	return h, nil
}

// MetricsHistory returns the running history sampler, or nil.
func (s *Store) MetricsHistory() *obs.History {
	return s.history.Load()
}

// StopMetricsHistory halts the sampler (persisting its final state for
// stores with a path) and detaches it. No-op when none is running.
func (s *Store) StopMetricsHistory() {
	h := s.history.Load()
	if h == nil {
		return
	}
	h.Stop()
	s.saveHistory()
	s.history.CompareAndSwap(h, nil)
}

// saveHistory writes the history sidecar. Best-effort by design: retained
// telemetry is auxiliary, so a failed write never degrades a checkpoint.
func (s *Store) saveHistory() {
	h := s.history.Load()
	sc := s.historySidecar()
	if h == nil || sc == "" {
		return
	}
	if data, err := h.Snapshot(); err == nil {
		_ = os.WriteFile(sc, data, 0o644)
	}
}
