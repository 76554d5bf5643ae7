package orpheusdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/core"
	"orpheusdb/internal/wal"
)

// Durability. A Store's snapshot file alone is only as fresh as the last
// debounced save: a crash after an acknowledged Commit but before the async
// save would silently lose versions. Enabling the write-ahead log closes
// that window. Every mutation appends one typed record to an append-only,
// CRC-checksummed segment log inside its critical section, before the call
// returns; reopening the store replays the log tail over the last snapshot,
// tolerating torn tails (the log is truncated at the first bad frame, so
// recovery yields exactly the acknowledged prefix). The debounced save
// becomes a checkpoint: it snapshots the engine together with the
// applied-LSN watermark and then truncates the log segments the snapshot
// made obsolete, so the log stays short and saves stop being the only
// durability mechanism.
//
// Logged mutations: dataset init/drop, commits (including schema evolution
// and staged-table commits, whose materialized rows ride in the record),
// repartitioning batches, and user registration. The staging
// area itself (CheckoutToTable, SQL writes on staged tables) remains
// checkpoint-durable only: staged tables are working copies whose loss is
// recoverable by checking out again, and logging them would bloat the log
// with data the commit record captures anyway.

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy = wal.Policy

// Fsync policies, re-exported: FsyncAlways syncs before every commit
// acknowledgment, FsyncInterval syncs on a background cadence (bounded loss
// on power failure, none on process crash), FsyncOff leaves flushing to the
// OS entirely.
const (
	FsyncAlways   = wal.PolicyAlways
	FsyncInterval = wal.PolicyInterval
	FsyncOff      = wal.PolicyOff
)

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// WALConfig configures the store's write-ahead log.
type WALConfig struct {
	// Dir is the segment directory; defaults to "<store path>.wal".
	Dir string
	// Policy is the fsync policy (default FsyncAlways).
	Policy FsyncPolicy
	// SyncInterval is the background fsync cadence under FsyncInterval
	// (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes rotates log segments past this size (default 16 MiB).
	SegmentBytes int64
}

// EnableWAL attaches a write-ahead log to the store and runs crash recovery:
// any log records the current state does not reflect (their LSN is beyond
// the loaded snapshot's watermark) are replayed, reconstructing every
// acknowledged mutation. Call it immediately after OpenStoreWithOptions,
// before the store is shared; it is not safe to enable concurrently with
// mutations.
// A store without a path (NewStore) may still enable a WAL with an explicit
// Dir, making the log the sole persistence mechanism.
func (s *Store) EnableWAL(cfg WALConfig) error {
	if s.wal != nil {
		return fmt.Errorf("orpheusdb: WAL already enabled")
	}
	if cfg.Dir == "" {
		if s.path == "" {
			return fmt.Errorf("orpheusdb: WAL needs a directory for an in-memory store")
		}
		cfg.Dir = s.path + ".wal"
	}
	l, err := wal.Open(wal.Options{
		Dir:          cfg.Dir,
		SegmentBytes: cfg.SegmentBytes,
		Policy:       cfg.Policy,
		SyncInterval: cfg.SyncInterval,
		AppendBytes:  s.obs.walAppendBytes,
		FsyncSeconds: s.obs.walFsyncSeconds,
	})
	if err != nil {
		return err
	}
	// If the snapshot is ahead of the log (the log directory was removed),
	// fresh appends must not reuse LSNs the snapshot already covers.
	base := s.db.WalLSN() // what the loaded snapshot reflects
	if err := l.EnsureNextLSN(base + 1); err != nil {
		l.Close()
		return err
	}
	replayed := 0
	err = l.Replay(base, func(lsn uint64, rec *wal.Record) error {
		if err := s.replayRecord(rec); err != nil {
			return fmt.Errorf("orpheusdb: wal replay LSN %d (%s %s): %w", lsn, rec.Type, rec.Dataset, err)
		}
		s.db.SetWalLSN(lsn)
		replayed++
		return nil
	})
	if err != nil {
		l.Close()
		return err
	}
	s.wal = l
	s.walCfg = cfg
	s.ckptLSN.Store(base) // the on-disk snapshot covers exactly the pre-replay watermark
	if replayed > 0 {
		// Replay mutated CVDs directly, bypassing the mutators that
		// invalidate the checkout cache; drop anything a pre-EnableWAL
		// read may have materialized from the pre-replay state.
		s.cache.Flush()
	}
	if replayed > 0 && s.path != "" {
		// Fold the replayed tail into a fresh snapshot soon so the next
		// recovery starts closer to the tail.
		s.scheduleSave()
	}
	return nil
}

// WALEnabled reports whether a write-ahead log is attached.
func (s *Store) WALEnabled() bool { return s.wal != nil }

// Path returns the store's snapshot file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// logMutation appends rec to the WAL and advances the engine's applied-LSN
// watermark. A commit or merge appends before it installs anything, so on
// failure nothing of it is visible; every other mutator appends inside its
// critical section after applying, and on failure its change stays in
// memory but is not acknowledged. Either way the error is returned to the
// caller, the log refuses further appends, and an immediate checkpoint is
// scheduled so snapshot-based durability takes over.
func (s *Store) logMutation(rec *wal.Record) error {
	if s.wal == nil {
		return nil
	}
	s.saveMu.Lock()
	stuck := s.installErr
	s.saveMu.Unlock()
	if stuck != nil {
		return fmt.Errorf("orpheusdb: writes refused until restart: %w", stuck)
	}
	lsn, err := s.wal.Append(rec)
	if lsn != 0 {
		// Even a failed append may have put the record in the log (fsync or
		// rotation failed after the write); the watermark must cover it so
		// the next checkpoint doesn't leave recovery a record to replay
		// over state that already contains it.
		s.db.AdvanceWalLSN(lsn)
	}
	if err != nil {
		s.saveMu.Lock()
		s.walErr = err
		s.saveMu.Unlock()
		s.scheduleSave()
		return fmt.Errorf("orpheusdb: %w", err)
	}
	return nil
}

// installFailed records that rec was logged but could not be installed.
// The log now holds a record the in-memory state lacks (perhaps half of
// it), so the store refuses further logged mutations and checkpoints —
// either would bury the record — until a restart replays it. WALStatus
// reports the error as the store's append error.
func (s *Store) installFailed(rec *wal.Record, err error) error {
	err = fmt.Errorf("orpheusdb: install of logged %s on %s failed: %w", rec.Type, rec.Dataset, err)
	if s.wal == nil {
		return err // nothing was logged
	}
	s.saveMu.Lock()
	if s.installErr == nil {
		s.installErr = err
	}
	if s.walErr == nil {
		s.walErr = err
	}
	s.saveMu.Unlock()
	return err
}

// commitRecord builds the WAL record of a planned commit on d: rows/cols
// are the original inputs so replay takes the exact same code path, and the
// plan's membership bitmap rides along so recovery can verify it rebuilt
// the acknowledged record set.
func (d *Dataset) commitRecord(typ wal.Type, cols []Column, rows []Row, p *core.CommitPlan) *wal.Record {
	return &wal.Record{
		Type:      typ,
		Dataset:   d.cvd.Name(),
		Msg:       p.Message,
		Cols:      cols,
		Rows:      rows,
		Parents:   vidsToInt64(p.Parents),
		Version:   int64(p.Vid),
		TimeNanos: p.CommitTime.UnixNano(),
		Members:   p.Members,
	}
}

// vidsToInt64 converts version ids to the WAL record's int64 form.
func vidsToInt64(vids []VersionID) []int64 {
	out := make([]int64, len(vids))
	for i, v := range vids {
		out[i] = int64(v)
	}
	return out
}

// invalidateCache drops the checkout-cache entries one mutation can change,
// keyed by the type of the mutation's WAL record. It is the single cache
// rule: primary mutators call it while they hold the dataset lock
// exclusively, where their change becomes visible (a commit or merge in its
// install, after the WAL append), and a follower calls it after applying
// the shipped record, so both drop exactly the same entries.
//
// Committed versions never change. A commit or merge adds a version and
// leaves every older version's record set as it was, so it drops only the
// entries tagged with no version set (the all-versions view behind
// `FROM CVD name`), and the dataset's generation — the ETag validator — does
// not move. A migration batch drops the entries that read the versions it
// moved, also without moving the generation. Only records that can change
// the pool schema or what a dataset name refers to (init, drop, schema and
// staged-table commits, legacy whole-layout optimizes) drop every entry and
// advance the generation. Branch and user records change no materialization.
func (s *Store) invalidateCache(rec *wal.Record) {
	switch rec.Type {
	case wal.TypeCommit, wal.TypeMerge:
		s.cache.InvalidateVersions(rec.Dataset, bitmap.FromSlice([]int64{rec.Version}))
	case wal.TypeOptimizeMigrate:
		if len(rec.MovedVersions) > 0 {
			s.cache.InvalidateVersions(rec.Dataset, bitmap.FromSlice(rec.MovedVersions))
		}
	case wal.TypeInit, wal.TypeDrop, wal.TypeCommitSchema, wal.TypeCommitTable,
		wal.TypeOptimize, wal.TypeMaintain:
		s.cache.InvalidateDataset(rec.Dataset)
	}
}

// replayRecord is applyRecord for crash recovery, which also reads logs an
// older version wrote. An init record naming a data model the store no
// longer serves cannot be replayed: the dataset is set aside as a catalog
// row naming that model (core.SetAside), so opening it reports
// ErrUnservedModel, and its later records are skipped until a drop removes
// the row. The store's other datasets replay as usual.
func (s *Store) replayRecord(rec *wal.Record) error {
	err := s.applyRecord(rec)
	if !errors.Is(err, core.ErrUnservedModel) {
		return err
	}
	if rec.Type == wal.TypeInit {
		return core.SetAside(s.db, rec.Dataset, core.ModelKind(rec.Model), rec.PrimaryKey)
	}
	return nil
}

// applyRecord replays one WAL record against the store. It runs during
// EnableWAL recovery (single-threaded, before the store is shared) and from
// ApplyReplicated on a live follower, which holds the save lock and the
// affected dataset's lock; the registry/catalog mutations below take s.mu
// themselves so follower reads never observe a half-updated registry. It
// calls core directly (no re-logging, no cache invalidation — callers own
// both).
func (s *Store) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeInit:
		s.mu.Lock()
		defer s.mu.Unlock()
		c, err := core.Init(s.db, rec.Dataset, rec.Cols, core.InitOptions{
			Model:      core.ModelKind(rec.Model),
			PrimaryKey: rec.PrimaryKey,
		})
		if err != nil {
			return err
		}
		c.SetCache(s.cache)
		c.SetMetrics(s.obs.core)
		c.SetHeat(core.NewHeat())
		s.datasets[rec.Dataset] = &Dataset{store: s, cvd: c}
		return nil
	case wal.TypeDrop:
		d, err := s.dataset(rec.Dataset)
		if errors.Is(err, core.ErrUnservedModel) {
			s.mu.Lock()
			defer s.mu.Unlock()
			return core.DropSetAside(s.db, rec.Dataset)
		}
		if err != nil {
			return err
		}
		if err := d.cvd.Drop(); err != nil {
			return err
		}
		d.dropped = true
		s.mu.Lock()
		delete(s.datasets, rec.Dataset)
		s.mu.Unlock()
		return nil
	case wal.TypeCommit, wal.TypeCommitSchema, wal.TypeCommitTable:
		return s.replayCommit(rec)
	case wal.TypeOptimize, wal.TypeMaintain:
		return s.replayLegacyOptimize(rec)
	case wal.TypeUserAdd:
		s.mu.Lock()
		defer s.mu.Unlock()
		return core.CreateUser(s.db, rec.User)
	case wal.TypeBranchCreate:
		d, err := s.dataset(rec.Dataset)
		if err != nil {
			return err
		}
		_, err = d.cvd.CreateBranchAt(rec.Branch, VersionID(rec.Version), time.Unix(0, rec.TimeNanos))
		return err
	case wal.TypeBranchDelete:
		d, err := s.dataset(rec.Dataset)
		if err != nil {
			return err
		}
		return d.cvd.DeleteBranch(rec.Branch)
	case wal.TypeBranchAdvance:
		d, err := s.dataset(rec.Dataset)
		if err != nil {
			return err
		}
		_, err = d.cvd.AdvanceBranch(rec.Branch, VersionID(rec.Version))
		return err
	case wal.TypeMerge:
		return s.replayMerge(rec)
	case wal.TypeOptimizeMigrate:
		return s.replayMigrateBatch(rec)
	case wal.TypeCheckpoint:
		return nil
	}
	return fmt.Errorf("unknown record type %d", rec.Type)
}

// migrateBatchRecord builds the WAL record for one applied migration batch.
func migrateBatchRecord(dataset string, b core.PartitionBatch) *wal.Record {
	rec := &wal.Record{
		Type:      wal.TypeOptimizeMigrate,
		Dataset:   dataset,
		BatchKind: uint8(b.Kind),
		Anchor:    int64(b.Anchor),
		Members:   b.Members,
	}
	if len(b.Versions) > 0 {
		rec.MovedVersions = make([]int64, len(b.Versions))
		for i, v := range b.Versions {
			rec.MovedVersions[i] = int64(v)
		}
	}
	return rec
}

// recordBatch reconstructs the migration batch a WAL record carries.
func recordBatch(rec *wal.Record) core.PartitionBatch {
	b := core.PartitionBatch{
		Kind:    core.PartitionBatchKind(rec.BatchKind),
		Anchor:  VersionID(rec.Anchor),
		Members: rec.Members,
	}
	if len(rec.MovedVersions) > 0 {
		b.Versions = make([]VersionID, len(rec.MovedVersions))
		for i, v := range rec.MovedVersions {
			b.Versions[i] = VersionID(v)
		}
	}
	return b
}

// replayLegacyOptimize replays an optimize or maintain record. Nothing writes
// them any more — every repartitioning logs its batches as optimize-migrate
// records — but a log from before that still holds them, and they carry only
// the solver's inputs. So replay does what a live optimize does: solve, plan,
// apply the batches. The maintain record was only ever written after its
// tolerance check had failed, so it migrates unconditionally; the naive bit
// chose an executor that no longer exists and is ignored.
func (s *Store) replayLegacyOptimize(rec *wal.Record) error {
	d, err := s.dataset(rec.Dataset)
	if err != nil {
		return err
	}
	var plan *core.RepartitionPlan
	if rec.Weighted {
		freq := make(map[VersionID]int64, len(rec.Freq))
		for k, v := range rec.Freq {
			freq[VersionID(k)] = v
		}
		plan, err = d.cvd.PlanRepartitionWeighted(rec.Gamma, freq, defaultBatchRows)
	} else {
		plan, err = d.cvd.PlanRepartition(rec.Gamma, defaultBatchRows)
	}
	if err != nil {
		return err
	}
	_, err = d.cvd.ApplyRepartition(plan)
	return err
}

// replayMigrateBatch re-applies one logged migration batch. The batch is
// deterministic from state (anchor-addressed targets, apply-time needed
// sets), so replay over the same starting state converges to the live
// layout; the membership invariant — every version's rlist covered by its
// partition — is re-verified for the versions the batch moved.
func (s *Store) replayMigrateBatch(rec *wal.Record) error {
	d, err := s.dataset(rec.Dataset)
	if err != nil {
		return err
	}
	b := recordBatch(rec)
	if _, err := d.cvd.ApplyPartitionBatch(b); err != nil {
		return err
	}
	for _, v := range b.Versions {
		if _, err := d.cvd.Checkout(v); err != nil {
			return fmt.Errorf("replay diverged: version %d not checkable after %s batch: %w",
				v, b.Kind, err)
		}
	}
	return nil
}

// replayCommit re-runs a logged commit with the recorded timestamp, then
// verifies the replay was exact: same version id and, via the logged
// membership bitmap, the same record set.
func (s *Store) replayCommit(rec *wal.Record) error {
	d, err := s.dataset(rec.Dataset)
	if err != nil {
		return err
	}
	cvd := d.cvd
	at := time.Unix(0, rec.TimeNanos)
	restore := cvd.Clock
	cvd.Clock = func() time.Time { return at }
	defer func() { cvd.Clock = restore }()

	parents := make([]VersionID, len(rec.Parents))
	for i, p := range rec.Parents {
		parents[i] = VersionID(p)
	}
	var vid VersionID
	switch rec.Type {
	case wal.TypeCommit:
		vid, err = cvd.Commit(context.TODO(), rec.Rows, parents, rec.Msg)
	case wal.TypeCommitSchema, wal.TypeCommitTable:
		// A staged table was consumed by the original commit; a stale
		// copy may survive in an older snapshot. The record carries the
		// materialized rows, so drop the leftover and commit those.
		if rec.Type == wal.TypeCommitTable && s.db.HasTable(rec.Table) {
			if err := s.db.DropTable(rec.Table); err != nil {
				return err
			}
			_ = core.ReleaseProvenance(s.db, rec.Table)
		}
		var p *core.CommitPlan
		if p, err = cvd.CommitWithSchema(context.TODO(), rec.Cols, rec.Rows, parents, rec.Msg); err == nil {
			vid = p.Vid
		}
	}
	if err != nil {
		return err
	}
	if rec.Version != 0 && int64(vid) != rec.Version {
		return fmt.Errorf("replay diverged: produced version %d, log says %d", vid, rec.Version)
	}
	if rec.Members != nil {
		set, err := cvd.RlistSet(vid)
		if err != nil {
			return err
		}
		if !set.Equal(rec.Members) {
			return fmt.Errorf("replay diverged: version %d rebuilt %d records, log says %d",
				vid, set.Cardinality(), rec.Members.Cardinality())
		}
	}
	return nil
}

// WALStatus describes the durability subsystem for operators (the
// /v1/wal/status endpoint renders it verbatim).
type WALStatus struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Policy  string `json:"policy,omitempty"`
	// AppliedLSN is the last mutation both applied and logged.
	AppliedLSN uint64 `json:"appliedLSN"`
	// CheckpointLSN is the watermark the last successful checkpoint
	// covers; log records at or below it are obsolete.
	CheckpointLSN uint64 `json:"checkpointLSN"`
	Segments      int    `json:"segments"`
	SizeBytes     int64  `json:"sizeBytes"`
	// Checkpoints and CheckpointBytes mirror the engine's cumulative
	// checkpoint counters (count and bytes written by checkpoints).
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpointBytes"`
	// AppendError reports a WAL that stopped accepting records (the store
	// keeps serving and checkpointing; restart to recover the log).
	AppendError string `json:"appendError,omitempty"`
	// SaveError reports the most recent snapshot/checkpoint failure.
	SaveError string `json:"saveError,omitempty"`
}

// WALStatus reports the durability subsystem's state. It is meaningful (and
// cheap) whether or not a WAL is attached: without one it still carries the
// last save error and checkpoint counters.
func (s *Store) WALStatus() WALStatus {
	stats := s.db.Stats()
	st := WALStatus{
		Enabled:         s.wal != nil,
		AppliedLSN:      s.db.WalLSN(),
		CheckpointLSN:   s.ckptLSN.Load(),
		Checkpoints:     stats.Checkpoints.Load(),
		CheckpointBytes: stats.CheckpointBytes.Load(),
	}
	s.saveMu.Lock()
	if s.saveErr != nil {
		st.SaveError = s.saveErr.Error()
	}
	if s.walErr != nil {
		st.AppendError = s.walErr.Error()
	}
	s.saveMu.Unlock()
	if s.wal == nil {
		return st
	}
	st.Dir = s.walCfg.Dir
	st.Policy = s.walCfg.Policy.String()
	if ls, err := s.wal.Stat(); err == nil {
		st.Segments = ls.Segments
		st.SizeBytes = ls.SizeBytes
	}
	if err := s.wal.Err(); err != nil && st.AppendError == "" {
		st.AppendError = err.Error()
	}
	return st
}

// CloseWAL detaches and closes the log (final fsync included). The store
// remains usable but subsequent mutations are checkpoint-durable only.
// Flush first if the log should be fully absorbed into the snapshot; Close
// does both.
func (s *Store) CloseWAL() error {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
