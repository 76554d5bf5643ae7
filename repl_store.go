package orpheusdb

import (
	"errors"
	"fmt"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/wal"
)

// Replication. The WAL is already a totally ordered, CRC-framed mutation
// stream, so read scaling falls out of shipping it: a follower bootstraps
// from a snapshot at LSN W, replays the log strictly after W, and then tails
// live appends, applying each record through the same replay path crash
// recovery uses (applyRecord, including its vid/membership divergence
// verification). The follower's Store is read-only — every mutator calls
// writable() first — until an explicit promotion flips it writable, which is
// also the failover story. This file is the store-side surface; the state
// machine that drives it over HTTP lives in internal/repl.

// SetReadOnly flips the store's write gate. A read-only store rejects every
// mutation (commits, merges, drops, SQL writes, optimizer migrations) with an
// error containing "read-only", which the HTTP layer maps to 403; reads and
// checkouts are unaffected. Replication applies records through
// ApplyReplicated, which bypasses the gate by design.
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// IsReadOnly reports whether the store rejects local writes.
func (s *Store) IsReadOnly() bool { return s.readOnly.Load() }

// writable is the gate every mutator checks before taking locks.
func (s *Store) writable() error {
	if s.readOnly.Load() {
		return fmt.Errorf("orpheusdb: store is read-only (follower replica; send writes to the primary)")
	}
	return nil
}

// NewStoreFromSnapshot builds an in-memory store from an engine snapshot —
// the follower bootstrap path: the primary streams its checkpoint snapshot
// (engine.DBSnapshot gob), the follower materializes it here and then tails
// the WAL from snap.WalLSN.
func NewStoreFromSnapshot(snap *engine.DBSnapshot) (*Store, error) {
	db, err := engine.FromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return newStore(db, "")
}

// ReplicationSnapshot captures a snapshot for follower bootstrap. As in a
// memory-backend Checkpoint, the exclusive lock is held only for the
// in-memory copy; the caller encodes and ships the result without blocking
// writers. The snapshot's WalLSN is the watermark the follower resumes the
// stream from.
func (s *Store) ReplicationSnapshot() *engine.DBSnapshot {
	s.ioMu.Lock()
	snap := s.db.Snapshot()
	s.ioMu.Unlock()
	return snap
}

// OpenWALStream returns a tailing iterator over the store's WAL records with
// LSN > from (see wal.Log.OpenAt). The primary's stream endpoint drives it;
// a store without a WAL cannot ship one. A from below the log's retained
// floor is rejected with a gap error up front — the iterator's own dense
// check only fires once a record arrives, which on an idle primary could be
// never, leaving a truncated-away follower hanging instead of
// re-bootstrapping.
func (s *Store) OpenWALStream(from uint64) (*wal.Iterator, error) {
	if s.wal == nil {
		return nil, fmt.Errorf("orpheusdb: WAL not enabled; replication requires a WAL on the primary")
	}
	it, err := s.wal.OpenAt(from)
	if err != nil {
		return nil, err
	}
	if floor, ferr := s.wal.FirstRetained(); ferr == nil && floor > from+1 {
		it.Close()
		return nil, fmt.Errorf("orpheusdb: wal stream: gap: records from LSN %d truncated by a checkpoint (retained floor %d)", from+1, floor)
	}
	return it, nil
}

// WALNotify returns a channel closed on the next WAL append — the long-poll
// primitive for the stream endpoint (see wal.Log.AppendWait). Nil when no WAL
// is attached (a nil channel never fires; pair it with a deadline).
func (s *Store) WALNotify() <-chan struct{} {
	if s.wal == nil {
		return nil
	}
	return s.wal.AppendWait()
}

// ApplyReplicated applies one record shipped from the primary. Records must
// arrive in dense LSN order; a duplicate (LSN at or below the applied
// watermark, normal after a reconnect re-sends the boundary) is skipped, a
// gap is an error telling the follower to re-bootstrap. The record goes
// through the same replay path crash recovery uses — including commit
// version-id and membership-bitmap divergence verification — under the same
// locks the primary's mutators hold, so concurrent follower reads never
// observe a half-applied record.
func (s *Store) ApplyReplicated(lsn uint64, rec *wal.Record) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	applied := s.db.WalLSN()
	if lsn <= applied {
		return nil
	}
	if lsn != applied+1 {
		return fmt.Errorf("orpheusdb: replication gap: want LSN %d, got %d", applied+1, lsn)
	}
	if rec.Dataset != "" && rec.Type != wal.TypeInit {
		// A dataset set aside under an unserved model has no handle to
		// lock; applyRecord accepts only its drop.
		d, err := s.dataset(rec.Dataset)
		if err != nil && !errors.Is(err, ErrUnservedModel) {
			return fmt.Errorf("orpheusdb: replication apply LSN %d: %w", lsn, err)
		}
		if d != nil {
			d.lock()
			defer d.unlock()
		}
	}
	if err := s.applyRecord(rec); err != nil {
		return fmt.Errorf("orpheusdb: replication apply LSN %d (%s %s): %w", lsn, rec.Type, rec.Dataset, err)
	}
	// The primary's rule, inside the same critical section: no reader
	// revalidates a stale materialization, and none loses a live one.
	s.invalidateCache(rec)
	s.db.SetWalLSN(lsn)
	return nil
}

// ReplicationInfo describes a store's replication role and progress for
// /healthz and orpheus top.
type ReplicationInfo struct {
	// Role is "follower" or "promoted".
	Role string `json:"role"`
	// Primary is the upstream base URL the follower replicates from.
	Primary string `json:"primary,omitempty"`
	// State is the follower state machine's phase: "bootstrapping",
	// "streaming", "disconnected", or "promoted".
	State string `json:"state"`
	// AppliedLSN is the last record applied locally; PrimaryLSN is the
	// primary's latest known LSN, so LagRecords = PrimaryLSN - AppliedLSN.
	AppliedLSN uint64 `json:"appliedLSN"`
	PrimaryLSN uint64 `json:"primaryLSN"`
	LagRecords uint64 `json:"lagRecords"`
	// LagSeconds is the time since the follower was last caught up with the
	// primary's stream (0 while caught up).
	LagSeconds float64 `json:"lagSeconds"`
	// Reconnects counts stream re-establishments; Snapshots counts
	// bootstrap downloads (>1 means the follower fell off the retained log
	// and re-bootstrapped).
	Reconnects uint64 `json:"reconnects"`
	Snapshots  uint64 `json:"snapshots"`
	// LastError is the most recent stream/apply failure, cleared on
	// recovery.
	LastError string `json:"lastError,omitempty"`
}

// Replication is the follower state machine attached to a read-only store
// (implemented by internal/repl.Follower). The server surfaces Info on
// /healthz and drives Promote from POST /api/v1/promote.
type Replication interface {
	// Info reports role, state, and lag.
	Info() ReplicationInfo
	// Promote drains the stream and flips the store writable. Idempotent.
	Promote() error
}

// SetReplication attaches (or, with nil, detaches) the store's replication
// driver.
func (s *Store) SetReplication(r Replication) {
	s.replMu.Lock()
	s.repl = r
	s.replMu.Unlock()
}

// Replication returns the attached replication driver, nil on a primary.
func (s *Store) Replication() Replication {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.repl
}
