package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	orpheusdb "orpheusdb"
)

// The traced run records spans from the benchmark's side only: around each
// call into a layer's public functions. It reads no span or metric name the
// program emits, so renaming those cannot break the benchmark.

// span is one line of trace-<workload>.jsonl.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
	Class  string `json:"class"`
	Depth  string `json:"depth"`
	// Counters holds the deltas of the public counter structs across a root
	// span; child spans carry none.
	Counters *counters `json:"counters,omitempty"`
}

// counters is the public state read at op boundaries: engine.Stats,
// cache.Stats, WALStatus and the backend's file size.
type counters struct {
	SeqPages      int64 `json:"seq_pages"`
	RandPages     int64 `json:"rand_pages"`
	RowsScanned   int64 `json:"rows_scanned"`
	PageFaults    int64 `json:"page_faults"`
	PageEvictions int64 `json:"page_evictions"`
	PagesFlushed  int64 `json:"pages_flushed"`
	Checkpoints   int64 `json:"checkpoints"`
	CkptBytes     int64 `json:"checkpoint_bytes"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheEvict    int64 `json:"cache_evictions"`
	CacheInval    int64 `json:"cache_invalidations"`
	Merges        int64 `json:"merges"`
	Conflicts     int64 `json:"merge_conflicts"`
	Migrations    int64 `json:"partition_migrations"`
	Batches       int64 `json:"partition_batches"`
	RowsMoved     int64 `json:"partition_rows_moved"`
	WALRecords    int64 `json:"wal_records"`
	WALBytes      int64 `json:"wal_bytes"` // growth of the log directory; negative across a truncation
	FileBytes     int64 `json:"file_bytes"`
}

func readCounters(st *orpheusdb.Store) counters {
	s := st.DB().Stats().Snapshot()
	cs := st.CacheStats()
	ws := st.WALStatus()
	c := counters{
		SeqPages: s.SeqPages, RandPages: s.RandPages, RowsScanned: s.RowsScanned,
		PageFaults: s.PageFaults, PageEvictions: s.PageEvictions, PagesFlushed: s.PagesFlushed,
		Checkpoints: s.Checkpoints, CkptBytes: s.CheckpointBytes,
		CacheHits: cs.Hits, CacheMisses: cs.Misses, CacheEvict: cs.Evictions, CacheInval: cs.Invalidations,
		Merges: s.Merges, Conflicts: s.MergeConflicts,
		Migrations: s.PartitionMigrations, Batches: s.PartitionBatches, RowsMoved: s.PartitionRowsMoved,
		WALRecords: int64(ws.AppliedLSN), WALBytes: ws.SizeBytes,
	}
	if b := st.DB().Backend(); b != nil {
		c.FileBytes = b.SizeBytes()
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		SeqPages: a.SeqPages - b.SeqPages, RandPages: a.RandPages - b.RandPages, RowsScanned: a.RowsScanned - b.RowsScanned,
		PageFaults: a.PageFaults - b.PageFaults, PageEvictions: a.PageEvictions - b.PageEvictions, PagesFlushed: a.PagesFlushed - b.PagesFlushed,
		Checkpoints: a.Checkpoints - b.Checkpoints, CkptBytes: a.CkptBytes - b.CkptBytes,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses, CacheEvict: a.CacheEvict - b.CacheEvict, CacheInval: a.CacheInval - b.CacheInval,
		Merges: a.Merges - b.Merges, Conflicts: a.Conflicts - b.Conflicts,
		Migrations: a.Migrations - b.Migrations, Batches: a.Batches - b.Batches, RowsMoved: a.RowsMoved - b.RowsMoved,
		WALRecords: a.WALRecords - b.WALRecords, WALBytes: a.WALBytes - b.WALBytes, FileBytes: a.FileBytes - b.FileBytes,
	}
}

// plus adds two sets of deltas.
func (a counters) plus(b counters) counters { return a.minus(counters{}.minus(b)) }

// tracer keeps spans in memory until the traced run ends. It serves one
// client, so it needs no lock. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	root  int // index of the open root span, -1 between ops
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// spanRef ends one span; nil when tracing is off.
type spanRef struct {
	t *tracer
	i int
}

func (t *tracer) open(name string, parent, op int, class, depth string) *spanRef {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0)), Op: op, Class: class, Depth: depth})
	return &spanRef{t: t, i: len(t.spans) - 1}
}

// beginOp opens the root span of one op; spans started until it ends are its
// children.
func (t *tracer) beginOp(op int, class string, d depth) *spanRef {
	if t == nil {
		return nil
	}
	r := t.open("op", 0, op, class, d.String())
	t.root = r.i
	return r
}

// start opens a child of the current op's root span (or a root span of its
// own outside any op, for the direct layer probes).
func (t *tracer) start(name string) *spanRef {
	if t == nil {
		return nil
	}
	if t.root < 0 {
		return t.open(name, 0, 0, "", "")
	}
	root := t.spans[t.root]
	return t.open(name, root.ID, root.Op, root.Class, root.Depth)
}

func (r *spanRef) end() {
	if r == nil {
		return
	}
	r.t.spans[r.i].End = int64(time.Since(r.t.t0))
	if r.i == r.t.root {
		r.t.root = -1
	}
}

// endWith ends a root span and attaches the counter deltas across it.
func (r *spanRef) endWith(delta counters) {
	if r == nil {
		return
	}
	r.t.spans[r.i].Counters = &delta
	r.end()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
