package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"orpheusdb/internal/bitmap"
)

// Bitmap-probe join: the set-based sibling of JoinRids. Checkout hands the
// membership bitmap straight to the scan instead of materializing a rid list
// and building a transient hash table over it — the map build was the
// dominant fixed cost of the hash-join checkout path (one hash insert per
// member rid before the scan even starts). Probing the compressed bitmap
// during the scan removes both the materialization and the build, and the
// scan itself can split into page chunks filled by a worker pool when cores
// are available.

// setJoinMinPages is the scan size below which chunked parallelism cannot
// recoup its fan-out cost.
const setJoinMinPages = 16

// setJoinWorkers, when set, overrides the GOMAXPROCS-derived worker count
// for parallel probe scans (tests pin it; 0 restores the default).
var setJoinWorkers atomic.Int32

// SetJoinWorkers overrides the probe-scan worker count. n <= 0 restores the
// GOMAXPROCS-aware default. Intended for tests and benchmarks.
func SetJoinWorkers(n int) {
	if n < 0 {
		n = 0
	}
	setJoinWorkers.Store(int32(n))
}

// JoinWorkers reports the worker count parallel probe scans will use.
func JoinWorkers() int {
	if v := setJoinWorkers.Load(); v > 0 {
		return int(v)
	}
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// JoinRidsSet joins a membership bitmap with table t on integer column
// ridCol, returning matching rows in scan order (the same order
// hashJoinRids emits). For HashJoin — the standard checkout plan — the scan
// probes the bitmap directly; merge and index-nested-loop joins fall back to
// JoinRids over the materialized rid list, which their ordered traversals
// need anyway.
func JoinRidsSet(t *Table, ridCol int, set *bitmap.Bitmap, m JoinMethod) ([]Row, error) {
	if ridCol < 0 || ridCol >= len(t.cols) {
		return nil, fmt.Errorf("engine: join: bad rid column %d", ridCol)
	}
	if m != HashJoin {
		return JoinRids(t, ridCol, set.ToSlice(), m)
	}
	n := int(set.Cardinality())
	if workers := JoinWorkers(); workers > 1 && len(t.pages) >= setJoinMinPages {
		return probeJoinParallel(t, ridCol, set, n, workers), nil
	}
	return probeJoinSeq(t, ridCol, set, n), nil
}

// probeJoinSeq is the single-goroutine probe scan, with the same I/O
// accounting as Table.Scan.
func probeJoinSeq(t *Table, ridCol int, set *bitmap.Bitmap, card int) []Row {
	out := make([]Row, 0, card)
	pr := bitmap.NewProber(set)
	for p := 0; p < len(t.pages); p++ {
		out = probePage(t, p, ridCol, pr, out)
	}
	return out
}

// probePage appends to out the rows of page p whose rid is in the probed
// set, with Table.Scan's accounting: one sequential page, and the live rows
// added to the shared counter once for the page rather than once per row.
func probePage(t *Table, p, ridCol int, pr *bitmap.Prober, out []Row) []Row {
	t.stats.SeqPages.Add(1)
	scanned := int64(0)
	for _, r := range t.page(p) {
		if r == nil {
			continue
		}
		scanned++
		if pr.Contains(r[ridCol].I) {
			out = append(out, r)
		}
	}
	t.stats.RowsScanned.Add(scanned)
	return out
}

// probeJoinParallel splits the heap into page chunks, scans them with a
// worker pool (each worker owns a Prober and a result buffer per chunk), and
// stitches the chunk results back in page order so the output is identical
// to the sequential scan. Stats counters are atomic, so concurrent chunk
// scans account correctly.
func probeJoinParallel(t *Table, ridCol int, set *bitmap.Bitmap, card, workers int) []Row {
	chunkPages := (len(t.pages) + workers*4 - 1) / (workers * 4)
	if chunkPages < 4 {
		chunkPages = 4
	}
	nChunks := (len(t.pages) + chunkPages - 1) / chunkPages
	if workers > nChunks {
		workers = nChunks
	}
	results := make([][]Row, nChunks)
	var next atomic.Int64
	scanChunk := func(ci int) {
		lo := ci * chunkPages
		hi := lo + chunkPages
		if hi > len(t.pages) {
			hi = len(t.pages)
		}
		buf := make([]Row, 0, card/nChunks+8)
		pr := bitmap.NewProber(set)
		for p := lo; p < hi; p++ {
			buf = probePage(t, p, ridCol, pr, buf)
		}
		results[ci] = buf
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := next.Add(1) - 1
				if ci >= int64(nChunks) {
					return
				}
				scanChunk(int(ci))
			}
		}()
	}
	for {
		ci := next.Add(1) - 1
		if ci >= int64(nChunks) {
			break
		}
		scanChunk(int(ci))
	}
	wg.Wait()
	out := make([]Row, 0, card)
	for _, buf := range results {
		out = append(out, buf...)
	}
	return out
}
