// Package cache implements the version-aware checkout cache: an LRU of
// materialized version record sets, keyed by (dataset, canonical form of the
// requested version set), with a byte budget, hit/miss/eviction counters, and
// singleflight collapsing of concurrent materializations of the same key.
//
// OrpheusDB's hot path is checkout: every `Checkout` and every
// `VERSION ... OF CVD` scan resolves membership bitmaps and fetches records
// from the backing tables. Version record sets are immutable once committed,
// and entries are keyed — and tagged — by the version sets they read. A
// commit or merge adds a version without changing any older one, so it drops
// only the untagged entries (the all-versions view) via InvalidateVersions; a
// partition migration drops the entries of the versions it moved. Neither
// moves the dataset's generation. Only a schema change, a drop or re-init
// (InvalidateDataset), or a whole-cache Flush drops every entry and advances
// the generation, which is why (dataset, versions, generation) is an ETag.
//
// Correct use requires a locking discipline from the caller, documented in
// docs/ARCHITECTURE.md: GetOrCompute must run entirely under the dataset's
// read lock (so compute-then-insert cannot interleave with a mutation's
// apply-then-invalidate, which runs under the write lock), and every mutator
// must invalidate what it changed before it releases the write lock. The
// cache itself is safe for concurrent use by any number of goroutines.
//
// Keys are canonical: requests that provably denote the same record set map
// to the same entry. The version set is serialized as a compressed bitmap
// (the ORBM format of internal/bitmap), which sorts and deduplicates for
// free; order- or operator-sensitive requests (primary-key precedence
// checkouts of several versions, mixed INTERSECT/EXCEPT chains) append their
// exact shape so distinct results never collide. See Key's documentation.
package cache

import (
	"container/list"
	"encoding/binary"
	"sync"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
)

// DefaultBudget is the byte budget a Store attaches its cache with: large
// enough to hold the hot versions of several datasets, small enough to stay
// an afterthought next to the engine's own footprint.
const DefaultBudget = 64 << 20

// Key operator codes: the ops argument of Key uses these values, which must
// equal the corresponding core.SetOp constants (core cannot be imported here
// — it imports this package — so core carries compile-time assertions tying
// the two together).
const (
	OpUnion     uint8 = 0
	OpIntersect uint8 = 1
	OpExcept    uint8 = 2
)

// Entry is one cached materialization: the schema and rows a checkout or
// multi-version scan produced. Both slices are shared — with the engine, with
// every reader that hits the entry — and must be treated as immutable.
type Entry struct {
	Cols []engine.Column
	Rows []engine.Row
}

// entry is the internal LRU node payload. vids, when set, tags the entry
// with the version ids its rows were materialized from, enabling selective
// invalidation (InvalidateVersions); untagged entries are treated as touching
// every version.
type entry struct {
	key     string
	dataset string
	vids    *bitmap.Bitmap
	val     Entry
	bytes   int64
}

// call is one in-flight computation (singleflight).
type call struct {
	wg   sync.WaitGroup
	val  Entry
	err  error
	gen  uint64
	used bool // inserted into the cache by the leader
}

// Cache is a byte-budgeted LRU of materialized version record sets. The zero
// value is not usable; call New.
type Cache struct {
	eng *engine.Stats // optional mirror for hit/miss/eviction counters

	mu        sync.Mutex
	budget    int64
	bytes     int64
	ll        *list.List // front = most recently used
	elems     map[string]*list.Element
	byDataset map[string]map[string]*list.Element
	// gens counts invalidations per dataset and epoch counts whole-cache
	// flushes. A dataset's generation is gens[ds]+epoch, so a Flush
	// advances every dataset — including ones this process has never
	// touched, whose backing tables raw DML may still have rewritten.
	// Within a process neither counter ever resets (drop + re-init of a
	// same-named dataset keeps bumping), which makes the sum a usable ETag
	// ingredient: a token minted under one generation can never validate
	// content produced under another. Across restarts the counters would
	// restart at zero and could collide with pre-restart tokens, so the
	// Store seeds the epoch with a per-process value (SeedEpoch) —
	// cross-restart validators then never match, which costs one full
	// response and can never serve stale bytes.
	gens   map[string]uint64
	epoch  uint64
	flight map[string]*call

	hits, misses, evictions, invalidations int64
}

// New builds a cache with the given byte budget. A budget <= 0 disables
// caching: GetOrCompute always computes (still collapsing concurrent
// duplicates) and nothing is retained. stats may be nil; when set, the
// cache mirrors hits/misses/evictions into it so they appear next to the
// engine's I/O counters.
func New(budget int64, stats *engine.Stats) *Cache {
	return &Cache{
		eng:       stats,
		budget:    budget,
		ll:        list.New(),
		elems:     make(map[string]*list.Element),
		byDataset: make(map[string]map[string]*list.Element),
		gens:      make(map[string]uint64),
		flight:    make(map[string]*call),
	}
}

// Key builds the canonical cache key for a materialization request against
// dataset. vids are the requested versions in request order; ops is the
// set-operator chain of a multi-version scan (len(ops) == len(vids)-1, using
// the core.SetOp values), nil for a plain checkout; ordered says whether the
// request's semantics depend on version order (primary-key precedence
// checkouts).
//
// The canonical form is the ORBM serialization of the vid set — so
// `VERSION 2 UNION 3` and `VERSION 3 UNION 2` share an entry, as do
// duplicate-vid requests — with the exact (vid, op) sequence appended only
// when it matters: ordered requests, and scan chains that mix operators or
// use non-commutative ones (EXCEPT, and INTERSECT/UNION mixtures). A chain
// of all-UNION or all-INTERSECT collapses to the pure set form.
func Key(dataset string, vids []int64, ops []uint8, ordered bool) string {
	set := bitmap.FromSlice(vids)
	setBytes, _ := set.MarshalBinary()
	// Tag the key shape so a checkout and a scan of the same vid set (whose
	// row semantics differ: precedence dedup vs record-id algebra) never
	// share an entry.
	tag := byte('c') // plain checkout
	if ops != nil {
		tag = 'u' // scan, canonical all-UNION
		for _, op := range ops {
			if op != ops[0] {
				tag = 'x' // mixed chain: order and operators matter
				break
			}
		}
		if tag == 'u' && len(ops) > 0 {
			switch ops[0] {
			case OpUnion:
			case OpIntersect:
				tag = 'i'
			default:
				tag = 'x' // EXCEPT is not commutative
			}
		}
	}
	exact := tag == 'x' || (ordered && len(vids) > 1)
	n := len(dataset) + 2 + len(setBytes)
	if exact {
		n += len(vids)*9 + len(ops)
	}
	b := make([]byte, 0, n)
	b = append(b, dataset...)
	b = append(b, 0, tag)
	b = append(b, setBytes...)
	if exact {
		for i, v := range vids {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			b = append(b, buf[:]...)
			if i > 0 && ops != nil {
				b = append(b, ops[i-1])
			}
		}
		if ordered {
			b = append(b, 'o')
		}
	}
	return string(b)
}

// AllVersionsKey is the key of the all-versions view (`FROM CVD name`): one
// row per (version, record) pair with a leading vid column.
func AllVersionsKey(dataset string) string { return dataset + "\x00a" }

// SeedEpoch initializes the flush epoch with a per-process value (the Store
// uses a timestamp). Called once before the cache is shared; it makes
// generation tokens minted by an earlier process unable to validate against
// this one. Panics if entries already exist — seeding must come first.
func (c *Cache) SeedEpoch(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() > 0 {
		panic("cache: SeedEpoch after entries were inserted")
	}
	c.epoch = epoch
}

// lookup reports whether key is resident, bumping its recency. It is a
// probe for tests: production reads go through GetOrCompute, whose
// singleflight and stat accounting a bare lookup would bypass.
func (c *Cache) lookup(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	return Entry{}, false
}

// GetOrCompute returns the entry under key, computing and caching it on a
// miss. Concurrent calls for the same key collapse: one caller computes, the
// rest block and share the result (or the error, which is never cached).
//
// The caller must hold the dataset's read lock for the entire call — that
// lock is what orders the compute+insert against a mutator's
// apply+invalidate. As insurance against misuse, the insert is skipped if the
// dataset's generation moved while computing.
func (c *Cache) GetOrCompute(dataset, key string, compute func() (Entry, error)) (Entry, error) {
	return c.GetOrComputeTagged(dataset, key, nil, compute)
}

// GetOrComputeTagged is GetOrCompute with a version tag: vids names the
// versions the materialization reads, so InvalidateVersions can drop exactly
// the entries a partition migration touched. The bitmap is shared, not
// copied; callers must not mutate it. A nil tag marks the entry as touching
// every version.
func (c *Cache) GetOrComputeTagged(dataset, key string, vids *bitmap.Bitmap, compute func() (Entry, error)) (Entry, error) {
	c.mu.Lock()
	if el, ok := c.elems[key]; ok {
		c.ll.MoveToFront(el)
		c.noteHit()
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		f.wg.Wait()
		c.mu.Lock()
		if f.err == nil && f.used {
			// The leader's result went into the cache; count this follower
			// as a hit (it cost no materialization).
			c.noteHit()
		} else {
			c.noteMiss()
		}
		c.mu.Unlock()
		return f.val, f.err
	}
	f := &call{gen: c.gens[dataset] + c.epoch}
	f.wg.Add(1)
	c.flight[key] = f
	c.noteMiss()
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.flight, key)
	if f.err == nil && c.gens[dataset]+c.epoch == f.gen {
		f.used = c.insertLocked(dataset, key, vids, f.val)
	}
	c.mu.Unlock()
	f.wg.Done()
	return f.val, f.err
}

// insertLocked stores val under key, evicting from the LRU tail until the
// budget holds. Entries larger than the whole budget are not cached.
func (c *Cache) insertLocked(dataset, key string, vids *bitmap.Bitmap, val Entry) bool {
	if c.budget <= 0 {
		return false
	}
	if el, ok := c.elems[key]; ok {
		// Lost a race we can only lose through misuse (two computes for one
		// key outside singleflight); keep the resident entry.
		c.ll.MoveToFront(el)
		return false
	}
	// Trim before caching: record sets are built with append, so they can
	// arrive with cap > len. The spare capacity aliases the builder's backing
	// array — in the worst case a block also referenced by a live table — and
	// entryBytes (which counts len) would silently under-count what the cache
	// actually retains. An exact-size copy of the slice headers (not the rows;
	// those are immutable and shared by design) makes the accounting honest
	// and keeps a caller's later append from writing into the cached array.
	if cap(val.Rows) > len(val.Rows) {
		val.Rows = append(make([]engine.Row, 0, len(val.Rows)), val.Rows...)
	}
	if cap(val.Cols) > len(val.Cols) {
		val.Cols = append(make([]engine.Column, 0, len(val.Cols)), val.Cols...)
	}
	sz := entryBytes(val)
	if sz > c.budget {
		return false
	}
	e := &entry{key: key, dataset: dataset, vids: vids, val: val, bytes: sz}
	el := c.ll.PushFront(e)
	c.elems[key] = el
	ds := c.byDataset[dataset]
	if ds == nil {
		ds = make(map[string]*list.Element)
		c.byDataset[dataset] = ds
	}
	ds[key] = el
	c.bytes += sz
	for c.bytes > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evictions++
		if c.eng != nil {
			c.eng.CacheEvictions.Add(1)
		}
	}
	return true
}

// removeLocked unlinks one LRU element.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.elems, e.key)
	if ds := c.byDataset[e.dataset]; ds != nil {
		delete(ds, e.key)
		if len(ds) == 0 {
			delete(c.byDataset, e.dataset)
		}
	}
	c.bytes -= e.bytes
}

// InvalidateDataset removes every entry belonging to dataset and bumps its
// generation. Mutators that can change how existing versions materialize
// (schema changes) or what the dataset name refers to (init, drop) call it
// inside their critical section (dataset write lock held, next to the WAL
// append), so no reader can be mid-materialization and no stale entry can be
// re-inserted afterwards.
func (c *Cache) InvalidateDataset(dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[dataset]++
	c.invalidations++
	ds := c.byDataset[dataset]
	for _, el := range ds {
		c.removeLocked(el)
	}
}

// InvalidateVersions removes dataset entries whose version tag intersects
// vids; untagged entries are removed too (they may touch any version).
// Unlike InvalidateDataset it does NOT bump the dataset's generation: its
// callers — a commit or merge (vids = the new version) and a partition
// migration batch (vids = the versions it moved) — leave every existing
// version's materialized contents as they were, so ETag validators minted
// before them remain sound; only entries that read the named versions, or
// every version, must be recomputed.
func (c *Cache) InvalidateVersions(dataset string, vids *bitmap.Bitmap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations++
	for _, el := range c.byDataset[dataset] {
		e := el.Value.(*entry)
		if e.vids == nil || e.vids.Intersects(vids) {
			c.removeLocked(el)
		}
	}
}

// Flush drops every entry and advances the flush epoch, which bumps every
// dataset's generation — including datasets this cache has never seen, whose
// backing tables raw SQL writes may still have rewritten.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.invalidations++
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
	}
}

// Generation returns dataset's invalidation generation: it moves exactly when
// a mutation may have changed what the dataset's existing versions
// materialize to (InvalidateDataset or a whole-cache Flush, never
// InvalidateVersions), which makes (dataset, versions, generation) a sound
// ETag.
func (c *Cache) Generation(dataset string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[dataset] + c.epoch
}

// SetBudget changes the byte budget, evicting down to it immediately.
// A budget <= 0 disables the cache and drops everything.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	for c.bytes > max(c.budget, 0) && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.evictions++
		if c.eng != nil {
			c.eng.CacheEvictions.Add(1)
		}
	}
}

// Stats is an immutable snapshot of the cache's state and counters.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	Budget        int64 `json:"budgetBytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		Budget:        c.budget,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}

// DatasetStats describes one dataset's share of the cache.
type DatasetStats struct {
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
}

// DatasetStats reports dataset's resident entries, bytes, and generation.
func (c *Cache) DatasetStats(dataset string) DatasetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := DatasetStats{Generation: c.gens[dataset] + c.epoch}
	for _, el := range c.byDataset[dataset] {
		out.Entries++
		out.Bytes += el.Value.(*entry).bytes
	}
	return out
}

func (c *Cache) noteHit() {
	c.hits++
	if c.eng != nil {
		c.eng.CacheHits.Add(1)
	}
}

func (c *Cache) noteMiss() {
	c.misses++
	if c.eng != nil {
		c.eng.CacheMisses.Add(1)
	}
}

// entryBytes estimates an entry's resident footprint: value payloads plus
// per-row and per-column overheads (the same shape as the engine's snapshot
// estimator).
func entryBytes(val Entry) int64 {
	n := int64(64)
	for _, c := range val.Cols {
		n += int64(len(c.Name)) + 16
	}
	for _, r := range val.Rows {
		n += 24
		for _, v := range r {
			n += valueBytes(v)
		}
	}
	return n
}

func valueBytes(v engine.Value) int64 {
	n := int64(56)
	switch v.K {
	case engine.KindString:
		n += int64(len(v.S))
	case engine.KindIntArray:
		n += 8 * int64(len(v.A))
	case engine.KindBitmap:
		if v.B != nil {
			n += v.B.SerializedSizeBytes()
		}
	}
	return n
}
