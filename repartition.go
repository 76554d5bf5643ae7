package orpheusdb

import (
	"context"
	"fmt"
	"time"

	"orpheusdb/internal/core"
	"orpheusdb/internal/obs"
)

// Repartitioning (Section 4.3). A partitioned layout changes in exactly one
// way: solve LYRESPLIT and plan the migration as bounded batches under the
// dataset read lock, then run the batches one short critical section each —
// apply, drop the cache entries of the versions it moved, append one
// optimize-migrate WAL record, schedule a save, unlock. Checkouts run between
// batches, every prefix of the sequence is a consistent layout, and recovery
// replays the logged batches instead of asking the solver again. Manual
// calls (Optimize, OptimizeWeighted, MaintainPartitions), the optimizer's
// Trigger and its drift sweeps all come through Dataset.repartition.

// defaultBatchRows bounds the records one migration batch inserts or deletes,
// and so how long its critical section holds the dataset lock.
const defaultBatchRows = 4096

// MigrationReport summarizes one executed repartitioning.
type MigrationReport struct {
	Dataset string  `json:"dataset"`
	Reason  string  `json:"reason"`
	Delta   float64 `json:"delta"`
	Groups  int     `json:"groups"`
	// EstStorage and EstCheckout are the solver's estimates of S and Cavg (in
	// records) for the layout migrated to.
	EstStorage  int64         `json:"est_storage_records"`
	EstCheckout float64       `json:"est_avg_checkout_records"`
	Batches     int           `json:"batches"`
	RowsMoved   int64         `json:"rows_moved"`
	SolveTime   time.Duration `json:"-"`
	MigrateTime time.Duration `json:"-"` // the batch loop alone
	TotalTime   time.Duration `json:"-"`
	SolveMs     int64         `json:"solve_ms"`
	TotalMs     int64         `json:"total_ms"`
	Partitions  int           `json:"partitions"`
}

// MaintenanceResult reports one MaintainPartitions check.
type MaintenanceResult struct {
	// Cavg and BestCavg are the current and LYRESPLIT-optimal checkout
	// costs in records.
	Cavg, BestCavg float64
	// Migrated reports whether the tolerance factor was exceeded and a
	// migration ran; Migration carries its details.
	Migrated  bool
	Migration *MigrationReport
}

// Optimize runs the partition optimizer (LYRESPLIT) under the storage budget
// γ = gammaFactor × |R| and migrates the partitioned layout to its answer.
func (d *Dataset) Optimize(gammaFactor float64) (*MigrationReport, error) {
	return d.repartition("optimize", nil, func(c *core.CVD) (*core.RepartitionPlan, error) {
		return c.PlanRepartition(gammaFactor, defaultBatchRows)
	})
}

// OptimizeWeighted is Optimize under the weighted checkout cost of Appendix
// C.2: versions with higher freq land in smaller partitions. Missing
// versions default to weight 1.
func (d *Dataset) OptimizeWeighted(gammaFactor float64, freq map[VersionID]int64) (*MigrationReport, error) {
	return d.repartition("optimize-weighted", nil, func(c *core.CVD) (*core.RepartitionPlan, error) {
		return c.PlanRepartitionWeighted(gammaFactor, freq, defaultBatchRows)
	})
}

// MaintainPartitions runs the periodic partition check of Section 4.3:
// when the current checkout cost exceeds mu times the best LYRESPLIT can
// achieve under gammaFactor·|R|, the layout is migrated.
func (d *Dataset) MaintainPartitions(gammaFactor, mu float64) (*MaintenanceResult, error) {
	out := &MaintenanceResult{}
	rep, err := d.repartition("maintain", nil, func(c *core.CVD) (*core.RepartitionPlan, error) {
		plan, err := c.PlanMaintenance(gammaFactor, mu, defaultBatchRows)
		if err == nil {
			out.Cavg, out.BestCavg = plan.Cavg, plan.EstCheckout
		}
		return plan, err
	})
	if err != nil {
		return nil, err
	}
	if rep.Batches > 0 {
		out.Migrated, out.Migration = true, rep
	}
	return out, nil
}

// repartition is the executor. plan runs under the dataset read lock; stop,
// when non-nil, abandons the plan between two batches once closed. A plan
// without batches (a maintenance check within tolerance) only refreshes the
// online placement parameters. migrateMu serializes the dataset's migrations:
// a second plan would have been computed against a layout the first is still
// rewriting. Lock order, per batch: migrateMu → ioMu (shared) → writer mutex
// → dataset lock.
func (d *Dataset) repartition(reason string, stop <-chan struct{}, plan func(*core.CVD) (*core.RepartitionPlan, error)) (*MigrationReport, error) {
	s := d.store
	if err := s.writable(); err != nil {
		return nil, err
	}
	d.migrateMu.Lock()
	defer d.migrateMu.Unlock()
	t0 := time.Now()
	ctx, root := s.obs.tracer.StartTrace(context.Background(), "optimize")
	defer root.End()

	_, planSpan := obs.StartSpan(ctx, "optimize.plan")
	d.rlock()
	var p *core.RepartitionPlan
	err := d.aliveLocked()
	if err == nil {
		p, err = plan(d.cvd)
	}
	d.mu.RUnlock()
	planSpan.End()
	if err != nil {
		return nil, err
	}

	stats := s.db.Stats()
	tMigrate := time.Now()
	var moved int64
	for _, b := range p.Batches {
		select {
		case <-stop:
			// Every prefix of the batch sequence leaves a consistent layout
			// (and is already logged), so stopping here is safe.
			return nil, fmt.Errorf("orpheusdb: %s: migration interrupted by optimizer shutdown", d.cvd.Name())
		default:
		}
		n, err := d.applyBatch(ctx, b)
		if err != nil {
			return nil, err
		}
		moved += n
		stats.PartitionBatches.Add(1)
		stats.PartitionRowsMoved.Add(n)
	}
	d.lock()
	d.cvd.CompleteRepartition(p)
	status := d.cvd.PartitionStatus()
	d.unlock()
	total := time.Since(t0)
	if len(p.Batches) > 0 {
		stats.PartitionMigrations.Add(1)
		s.obs.partitionMigrateSeconds.Observe(total.Seconds())
	}
	return &MigrationReport{
		Dataset:     d.cvd.Name(),
		Reason:      reason,
		Delta:       p.Delta,
		Groups:      p.Groups,
		EstStorage:  p.EstStorage,
		EstCheckout: p.EstCheckout,
		Batches:     len(p.Batches),
		RowsMoved:   moved,
		SolveTime:   p.SolveTime,
		MigrateTime: time.Since(tMigrate),
		TotalTime:   total,
		SolveMs:     p.SolveTime.Milliseconds(),
		TotalMs:     total.Milliseconds(),
		Partitions:  len(status.Partitions),
	}, nil
}

// applyBatch is one migration batch's critical section.
func (d *Dataset) applyBatch(ctx context.Context, b core.PartitionBatch) (int64, error) {
	s := d.store
	_, span := obs.StartSpan(ctx, "optimize.migrate")
	defer span.End()
	s.ioMu.RLock()
	defer s.ioMu.RUnlock()
	d.lock()
	defer d.unlock()
	if err := d.aliveLocked(); err != nil {
		return 0, err
	}
	n, err := d.cvd.ApplyPartitionBatch(b)
	if err != nil {
		return 0, err
	}
	rec := migrateBatchRecord(d.cvd.Name(), b)
	s.invalidateCache(rec)
	if err := s.logMutation(rec); err != nil {
		return n, err
	}
	s.scheduleSave()
	return n, nil
}

// PartitionStatus snapshots the dataset's partitioned layout (partition
// sizes, storage amplification, δ*, current average checkout cost). Every
// dataset is partitioned, so ok is always true.
func (d *Dataset) PartitionStatus() (status *core.PartitionStatus, ok bool) {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.PartitionStatus(), true
}
