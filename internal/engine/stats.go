package engine

import (
	"fmt"
	"sync/atomic"
)

// RandCost is the modeled cost of a random page fetch relative to a
// sequential one. Appendix D.1 of the paper observes that large numbers of
// random accesses degrade to (and beyond) a full sequential scan; the planner
// uses this factor when choosing between index and sequential scans.
const RandCost = 50

// Stats accounts the I/O the engine performs. Counters are cumulative and
// safe for concurrent use; Reset or Snapshot+diff them around a measured
// region. One Stats instance is shared by all tables of a DB.
type Stats struct {
	SeqPages    atomic.Int64 // pages fetched as part of a sequential scan
	RandPages   atomic.Int64 // pages fetched via random access (index probes)
	RowsScanned atomic.Int64 // rows materialized from pages
	IndexProbes atomic.Int64 // index lookups performed
	HashBuilds  atomic.Int64 // rows inserted into transient hash tables

	// Checkpoint accounting: how many checkpoints ran and the cumulative
	// bytes they wrote (snapshot files on the memory engine, flushed pages
	// on a backend), so the cost of persistence is observable next to the
	// I/O it competes with.
	Checkpoints     atomic.Int64
	CheckpointBytes atomic.Int64

	// Checkout-cache accounting (internal/cache mirrors its counters here
	// when wired to a Stats): hits serve materialized version record sets
	// without touching pages, misses fall through to the scans counted
	// above, evictions track byte-budget pressure.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64

	// Branch/merge accounting (the store mirrors its branch registry and
	// three-way-merge activity here): branches created, merges attempted,
	// and record-level conflicts detected across all merges — resolved by
	// policy or surfaced under the fail policy alike.
	BranchCreates  atomic.Int64
	Merges         atomic.Int64
	MergeConflicts atomic.Int64

	// Partition-optimizer accounting (the store's background optimizer and
	// the manual optimize entry points mirror their activity here): completed
	// LYRESPLIT migrations, individual migration batches applied under the
	// dataset critical section, and record rows moved (inserted into or
	// deleted from partition data tables) by those batches.
	PartitionMigrations atomic.Int64
	PartitionBatches    atomic.Int64
	PartitionRowsMoved  atomic.Int64

	// Pager accounting (backend-attached engines only): cold heap pages
	// faulted in from the storage backend, resident pages evicted under
	// byte-budget pressure, and dirty pages written back by checkpoints.
	PageFaults    atomic.Int64
	PageEvictions atomic.Int64
	PagesFlushed  atomic.Int64
}

// StatSnapshot is an immutable copy of the counters.
type StatSnapshot struct {
	SeqPages    int64
	RandPages   int64
	RowsScanned int64
	IndexProbes int64
	HashBuilds  int64

	Checkpoints     int64
	CheckpointBytes int64

	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64

	BranchCreates  int64
	Merges         int64
	MergeConflicts int64

	PartitionMigrations int64
	PartitionBatches    int64
	PartitionRowsMoved  int64

	PageFaults    int64
	PageEvictions int64
	PagesFlushed  int64
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() StatSnapshot {
	return StatSnapshot{
		SeqPages:    s.SeqPages.Load(),
		RandPages:   s.RandPages.Load(),
		RowsScanned: s.RowsScanned.Load(),
		IndexProbes: s.IndexProbes.Load(),
		HashBuilds:  s.HashBuilds.Load(),

		Checkpoints:     s.Checkpoints.Load(),
		CheckpointBytes: s.CheckpointBytes.Load(),

		CacheHits:      s.CacheHits.Load(),
		CacheMisses:    s.CacheMisses.Load(),
		CacheEvictions: s.CacheEvictions.Load(),

		BranchCreates:  s.BranchCreates.Load(),
		Merges:         s.Merges.Load(),
		MergeConflicts: s.MergeConflicts.Load(),

		PartitionMigrations: s.PartitionMigrations.Load(),
		PartitionBatches:    s.PartitionBatches.Load(),
		PartitionRowsMoved:  s.PartitionRowsMoved.Load(),

		PageFaults:    s.PageFaults.Load(),
		PageEvictions: s.PageEvictions.Load(),
		PagesFlushed:  s.PagesFlushed.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.SeqPages.Store(0)
	s.RandPages.Store(0)
	s.RowsScanned.Store(0)
	s.IndexProbes.Store(0)
	s.HashBuilds.Store(0)
	s.Checkpoints.Store(0)
	s.CheckpointBytes.Store(0)
	s.CacheHits.Store(0)
	s.CacheMisses.Store(0)
	s.CacheEvictions.Store(0)
	s.BranchCreates.Store(0)
	s.Merges.Store(0)
	s.MergeConflicts.Store(0)
	s.PartitionMigrations.Store(0)
	s.PartitionBatches.Store(0)
	s.PartitionRowsMoved.Store(0)
	s.PageFaults.Store(0)
	s.PageEvictions.Store(0)
	s.PagesFlushed.Store(0)
}

// Since returns the counter deltas accumulated after the given snapshot.
func (s *Stats) Since(prev StatSnapshot) StatSnapshot {
	cur := s.Snapshot()
	return StatSnapshot{
		SeqPages:    cur.SeqPages - prev.SeqPages,
		RandPages:   cur.RandPages - prev.RandPages,
		RowsScanned: cur.RowsScanned - prev.RowsScanned,
		IndexProbes: cur.IndexProbes - prev.IndexProbes,
		HashBuilds:  cur.HashBuilds - prev.HashBuilds,

		Checkpoints:     cur.Checkpoints - prev.Checkpoints,
		CheckpointBytes: cur.CheckpointBytes - prev.CheckpointBytes,

		CacheHits:      cur.CacheHits - prev.CacheHits,
		CacheMisses:    cur.CacheMisses - prev.CacheMisses,
		CacheEvictions: cur.CacheEvictions - prev.CacheEvictions,

		BranchCreates:  cur.BranchCreates - prev.BranchCreates,
		Merges:         cur.Merges - prev.Merges,
		MergeConflicts: cur.MergeConflicts - prev.MergeConflicts,

		PartitionMigrations: cur.PartitionMigrations - prev.PartitionMigrations,
		PartitionBatches:    cur.PartitionBatches - prev.PartitionBatches,
		PartitionRowsMoved:  cur.PartitionRowsMoved - prev.PartitionRowsMoved,

		PageFaults:    cur.PageFaults - prev.PageFaults,
		PageEvictions: cur.PageEvictions - prev.PageEvictions,
		PagesFlushed:  cur.PagesFlushed - prev.PagesFlushed,
	}
}

// IOCost is the modeled I/O cost in sequential-page units.
func (d StatSnapshot) IOCost() int64 {
	return d.SeqPages + RandCost*d.RandPages
}

// String formats the snapshot for logs and experiment output, covering every
// counter group: scan I/O, checkpointing, the checkout cache, and
// branch/merge activity.
func (d StatSnapshot) String() string {
	return fmt.Sprintf("seq=%d rand=%d rows=%d probes=%d hash=%d cost=%d"+
		" ckpt=%d ckptBytes=%d cacheHit=%d cacheMiss=%d cacheEvict=%d"+
		" branches=%d merges=%d conflicts=%d"+
		" partMigrations=%d partBatches=%d partRowsMoved=%d"+
		" pageFaults=%d pageEvictions=%d pagesFlushed=%d",
		d.SeqPages, d.RandPages, d.RowsScanned, d.IndexProbes, d.HashBuilds, d.IOCost(),
		d.Checkpoints, d.CheckpointBytes, d.CacheHits, d.CacheMisses, d.CacheEvictions,
		d.BranchCreates, d.Merges, d.MergeConflicts,
		d.PartitionMigrations, d.PartitionBatches, d.PartitionRowsMoved,
		d.PageFaults, d.PageEvictions, d.PagesFlushed)
}
