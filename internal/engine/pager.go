package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
)

// The pager keeps a byte-budgeted working set of heap pages resident for
// tables attached to a Backend. Invariants:
//
//   - resMu guards a table's residency state: the pages slice headers,
//     resident/pageBytes/dirty and persistedPages. Row *elements* of a
//     resident page are written only by mutators, which the store serializes
//     against readers (dataset RW locks) and against checkpoints (ioMu).
//   - Dirty pages are pinned: eviction skips them, so a mutator that marked a
//     page dirty under resMu may keep appending to it without the lock.
//   - Lock order is evictMu → resMu. Fault-in therefore releases resMu
//     before notifying the evictor (noteLoad), never the other way around.
//   - Every page except the last holds exactly RowsPerPage slots (Insert
//     fills before it grows, Cluster/Compact rebuild through Insert), so slot
//     counts are arithmetic — no cold page is touched to answer bounds checks.

// evictEntry is one FIFO eviction candidate.
type evictEntry struct {
	t *Table
	p int
}

// attachBackend wires a freshly created table to the DB's backend.
func (db *DB) attachBackend(t *Table) {
	t.backend = db.backend
	t.db = db
	t.id = db.nextTableID.Add(1)
	t.dirty = make(map[int]bool)
}

// slotCount returns the slot count of page p. For backend tables this is
// arithmetic (the page may be cold); callers hold resMu or have the table
// quiesced.
func (t *Table) slotCount(p int) int {
	if t.backend == nil {
		return len(t.pages[p])
	}
	if p == len(t.pages)-1 {
		return t.nrows - p*RowsPerPage
	}
	return RowsPerPage
}

// page returns the slots of page p for reading, faulting it in from the
// backend if cold. The returned slice stays valid even if the page is evicted
// afterwards (eviction only drops the table's reference).
func (t *Table) page(p int) []Row {
	if t.backend == nil {
		return t.pages[p]
	}
	t.resMu.Lock()
	if t.resident[p] {
		pg := t.pages[p]
		t.resMu.Unlock()
		return pg
	}
	pg, loaded, ok := t.faultLocked(p)
	t.resMu.Unlock()
	if ok {
		t.db.noteLoad(t, p, loaded)
	}
	return pg
}

// writablePage faults page p in if needed and marks it dirty (pinning it
// against eviction) before returning its slots for element mutation.
func (t *Table) writablePage(p int) []Row {
	if t.backend == nil {
		return t.pages[p]
	}
	t.resMu.Lock()
	var pg []Row
	var loaded int64
	ok := true
	if t.resident[p] {
		pg = t.pages[p]
	} else {
		pg, loaded, ok = t.faultLocked(p)
	}
	if ok {
		t.dirty[p] = true
	}
	t.resMu.Unlock()
	if ok && loaded > 0 {
		t.db.noteLoad(t, p, loaded)
	}
	return pg
}

// faultLocked loads page p from the backend. Caller holds resMu. On success
// the page is installed resident and (slots, bytes, true) returned; the
// caller must pass bytes to db.noteLoad *after* releasing resMu. On failure
// the error is recorded on the DB (poisoning future checkpoints), and a
// zeroed page of the right geometry is returned un-installed so readers see
// bounds-safe tombstones instead of a panic.
func (t *Table) faultLocked(p int) ([]Row, int64, bool) {
	slots, err := t.backend.ReadPage(t.id, p)
	if err == nil && len(slots) != t.slotCount(p) {
		err = fmt.Errorf("backend returned %d slots, want %d", len(slots), t.slotCount(p))
	}
	if err == nil {
		t.pages[p] = slots
		t.resident[p] = true
		nbytes := liveBytes(slots)
		t.pageBytes[p] = nbytes
		t.stats.PageFaults.Add(1)
		return slots, nbytes, true
	}
	t.db.setBackendErr(fmt.Errorf("engine: table %s page %d: %w", t.name, p, err))
	return make([]Row, t.slotCount(p)), 0, false
}

// liveBytes is the estimated size of a page's live rows.
func liveBytes(slots []Row) int64 {
	var n int64
	for _, r := range slots {
		if r != nil {
			n += rowBytes(r)
		}
	}
	return n
}

// backendAppend places row r (of rb estimated bytes) in the heap of a
// backend table, returning its page and slot.
func (t *Table) backendAppend(r Row, rb int64) (int, int) {
	t.resMu.Lock()
	p := len(t.pages) - 1
	var loaded int64
	grew := false
	if p < 0 || t.nrows-p*RowsPerPage == RowsPerPage {
		t.pages = append(t.pages, make([]Row, 0, RowsPerPage))
		t.resident = append(t.resident, true)
		t.pageBytes = append(t.pageBytes, 0)
		p++
		grew = true
	} else if !t.resident[p] {
		_, loaded, _ = t.faultLocked(p)
		// A read failure leaves the page un-installed; install the
		// placeholder so the append lands somewhere bounds-safe. The
		// recorded backend error blocks the next checkpoint from
		// persisting this state.
		if !t.resident[p] {
			t.pages[p] = make([]Row, t.slotCount(p), RowsPerPage)
			t.resident[p] = true
			t.pageBytes[p] = 0
			grew = true
		}
	}
	t.dirty[p] = true
	t.pages[p] = append(t.pages[p], r)
	s := len(t.pages[p]) - 1
	t.pageBytes[p] += rb
	t.dataBytes += rb
	t.resMu.Unlock()
	if grew || loaded > 0 {
		t.db.noteLoad(t, p, loaded+rb)
	} else {
		t.db.noteGrow(rb)
	}
	return p, s
}

// noteRowDelta accounts an in-place size change of a row on (already dirty)
// page p. No-op without a backend.
func (t *Table) noteRowDelta(p int, delta int64) {
	if t.backend == nil || delta == 0 {
		return
	}
	t.resMu.Lock()
	t.pageBytes[p] += delta
	t.dataBytes += delta
	t.resMu.Unlock()
	if delta > 0 {
		t.db.noteGrow(delta)
	} else {
		t.db.releaseBytes(-delta)
	}
}

// resetHeap drops the whole heap (Cluster/Compact rebuild it through Insert)
// and releases its resident bytes from the DB budget. The committed page
// count is remembered so the next flush deletes orphaned tail pages.
func (t *Table) resetHeap() {
	if t.backend == nil {
		t.pages = nil
		t.nrows = 0
		t.ndel = 0
		return
	}
	t.resMu.Lock()
	var freed int64
	for p, res := range t.resident {
		if res {
			freed += t.pageBytes[p]
		}
	}
	t.pages = nil
	t.resident = nil
	t.pageBytes = nil
	t.dirty = make(map[int]bool)
	t.nrows = 0
	t.ndel = 0
	t.dataBytes = 0
	t.resMu.Unlock()
	t.db.releaseBytes(freed)
}

// releaseResidency returns all of a dropped table's resident bytes to the
// budget; stale eviction-queue entries see resident=false and fall out.
func (t *Table) releaseResidency() {
	if t.backend == nil {
		return
	}
	t.resMu.Lock()
	var freed int64
	for p, res := range t.resident {
		if res {
			freed += t.pageBytes[p]
			t.resident[p] = false
			t.pages[p] = nil
			t.pageBytes[p] = 0
		}
	}
	t.resMu.Unlock()
	t.db.releaseBytes(freed)
}

// noteLoad records that page p of t became resident holding nbytes, enqueues
// it for eviction, and trims the working set back under budget. Never called
// with a resMu held (evictMu → resMu is the lock order).
func (db *DB) noteLoad(t *Table, p int, nbytes int64) {
	db.residentBytes.Add(nbytes)
	db.evictMu.Lock()
	db.evictQueue = append(db.evictQueue, evictEntry{t, p})
	db.evictMu.Unlock()
	db.maybeEvict()
}

// noteGrow records byte growth of an already-resident page.
func (db *DB) noteGrow(nbytes int64) {
	db.residentBytes.Add(nbytes)
	db.maybeEvict()
}

// releaseBytes returns freed bytes to the budget.
func (db *DB) releaseBytes(nbytes int64) {
	if nbytes != 0 {
		db.residentBytes.Add(-nbytes)
	}
}

// maybeEvict pops FIFO candidates until the working set fits the budget.
// Dirty pages are pinned (their entries drop out here and are re-enqueued
// when a checkpoint cleans them), so a pass over the whole queue may end
// still over budget — that is the contract: checkpoints, not eviction, are
// how dirty memory drains.
func (db *DB) maybeEvict() {
	budget := db.pageBudget.Load()
	if db.backend == nil || budget <= 0 {
		return
	}
	db.evictMu.Lock()
	defer db.evictMu.Unlock()
	attempts := len(db.evictQueue)
	for db.residentBytes.Load() > budget && attempts > 0 && len(db.evictQueue) > 0 {
		attempts--
		e := db.evictQueue[0]
		db.evictQueue = db.evictQueue[1:]
		if len(db.evictQueue) == 0 && cap(db.evictQueue) > 1024 {
			db.evictQueue = nil
		}
		e.t.resMu.Lock()
		if e.p >= len(e.t.resident) || !e.t.resident[e.p] || e.t.dirty[e.p] {
			e.t.resMu.Unlock()
			continue
		}
		freed := e.t.pageBytes[e.p]
		e.t.pages[e.p] = nil
		e.t.resident[e.p] = false
		e.t.pageBytes[e.p] = 0
		e.t.resMu.Unlock()
		db.residentBytes.Add(-freed)
		db.stats.PageEvictions.Add(1)
	}
}

// Backend returns the DB's storage backend, or nil for the pure in-memory
// engine.
func (db *DB) Backend() Backend { return db.backend }

// BackendKind names the storage backend ("memory" when none is attached).
func (db *DB) BackendKind() string {
	if db.backend == nil {
		return "memory"
	}
	return db.backend.Kind()
}

// ResidentBytes reports the bytes of heap pages currently held in memory.
// Without a backend this equals the whole store and is not tracked (0).
func (db *DB) ResidentBytes() int64 { return db.residentBytes.Load() }

// PageBudget returns the resident-set byte budget (0 = unlimited).
func (db *DB) PageBudget() int64 { return db.pageBudget.Load() }

// SetPageBudget sets the resident-set byte budget and immediately trims the
// working set to it. Zero disables eviction.
func (db *DB) SetPageBudget(n int64) {
	if n < 0 {
		n = 0
	}
	db.pageBudget.Store(n)
	db.maybeEvict()
}

// setBackendErr records the first backend I/O failure. The error is sticky:
// it poisons FlushBackend so a checkpoint can never commit state assembled
// from failed reads on top of good on-disk data.
func (db *DB) setBackendErr(err error) {
	db.backendErrMu.Lock()
	if db.backendErr == nil {
		db.backendErr = err
	}
	db.backendErrMu.Unlock()
}

// BackendErr returns the recorded backend I/O failure, if any.
func (db *DB) BackendErr() error {
	db.backendErrMu.Lock()
	defer db.backendErrMu.Unlock()
	return db.backendErr
}

// CloseBackend releases the backend without flushing (staged writes are
// discarded — crash semantics). The DB must not be used afterwards.
func (db *DB) CloseBackend() error {
	if db.backend == nil {
		return nil
	}
	return db.backend.Close()
}

// Backend meta keys for store-level state living outside the table catalog.
const (
	metaSettingsKey = "meta/settings"
	metaLSNKey      = "meta/lsn"
	metaNextIDKey   = "meta/nextid"
)

// meta assembles the table's catalog entry. Caller has the table quiesced.
func (t *Table) meta() TableMeta {
	m := TableMeta{
		ID:    t.id,
		Name:  t.name,
		Cols:  append([]Column(nil), t.cols...),
		Pages: len(t.pages),
		NRows: t.nrows,
		NDel:  t.ndel,
		Bytes: t.dataBytes,
	}
	for _, c := range t.pk {
		m.PK = append(m.PK, t.cols[c].Name)
	}
	for key := range t.indexes {
		m.Indexes = append(m.Indexes, splitIndexKey(key))
	}
	sort.Slice(m.Indexes, func(i, j int) bool {
		return indexKeyName(m.Indexes[i]) < indexKeyName(m.Indexes[j])
	})
	if t.cluster != "" {
		m.Clustered = splitIndexKey(t.cluster)
	}
	return m
}

// FlushBackend persists every mutation since the last flush — dirty pages,
// table catalog entries, settings, the WAL low-water mark — as one atomic
// backend commit, then lets the working set drain. It returns the page
// bytes written. The caller must have all mutators quiesced (the store holds
// ioMu exclusively); concurrent readers are safe. This is the disk engine's
// checkpoint: O(dirty) instead of the snapshot path's O(store).
func (db *DB) FlushBackend() (int64, error) {
	if db.backend == nil {
		return 0, nil
	}
	if err := db.BackendErr(); err != nil {
		return 0, fmt.Errorf("engine: flush refused, backend poisoned: %w", err)
	}

	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, name := range db.tableNamesLocked() {
		tables = append(tables, db.tables[name])
	}
	settings := make(map[string]string, len(db.settings))
	for k, v := range db.settings {
		settings[k] = v
	}
	db.mu.RUnlock()

	db.pendingMu.Lock()
	drops := db.pendingDrops
	db.pendingDrops = nil
	db.pendingMu.Unlock()
	restoreDrops := func() {
		db.pendingMu.Lock()
		db.pendingDrops = append(drops, db.pendingDrops...)
		db.pendingMu.Unlock()
	}

	var written int64
	for _, d := range drops {
		if err := db.backend.DeleteTable(d.id, d.pages); err != nil {
			restoreDrops()
			return written, err
		}
	}
	for _, t := range tables {
		n, err := t.flushPages(db.backend)
		written += n
		if err != nil {
			restoreDrops()
			return written, err
		}
		if err := db.backend.PutTableMeta(t.meta()); err != nil {
			restoreDrops()
			return written, err
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(settings); err != nil {
		restoreDrops()
		return written, fmt.Errorf("engine: flush settings: %w", err)
	}
	if err := db.backend.PutMeta(metaSettingsKey, buf.Bytes()); err != nil {
		restoreDrops()
		return written, err
	}
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], db.walLSN.Load())
	if err := db.backend.PutMeta(metaLSNKey, u64[:]); err != nil {
		restoreDrops()
		return written, err
	}
	binary.BigEndian.PutUint64(u64[:], db.nextTableID.Load())
	if err := db.backend.PutMeta(metaNextIDKey, u64[:]); err != nil {
		restoreDrops()
		return written, err
	}

	if err := db.backend.Commit(); err != nil {
		restoreDrops()
		return written, err
	}

	for _, t := range tables {
		t.markClean()
	}
	db.maybeEvict()
	if err := db.backend.Maintain(); err != nil {
		return written, err
	}
	return written, nil
}

// flushPages stages the table's dirty pages and truncated tail with the
// backend. Dirty flags are cleared only after the commit (markClean).
func (t *Table) flushPages(b Backend) (int64, error) {
	t.resMu.Lock()
	dirty := make([]int, 0, len(t.dirty))
	for p := range t.dirty {
		dirty = append(dirty, p)
	}
	sort.Ints(dirty)
	slices := make([][]Row, len(dirty))
	for i, p := range dirty {
		slices[i] = t.pages[p]
	}
	persisted, npages := t.persistedPages, len(t.pages)
	t.resMu.Unlock()

	var written int64
	for i, p := range dirty {
		n, err := b.WritePage(t.id, p, slices[i])
		written += int64(n)
		if err != nil {
			return written, err
		}
		t.stats.PagesFlushed.Add(1)
	}
	for p := npages; p < persisted; p++ {
		if err := b.DeletePage(t.id, p); err != nil {
			return written, err
		}
	}
	return written, nil
}

// markClean clears dirty flags after a successful commit and hands the
// newly-clean pages to the evictor.
func (t *Table) markClean() {
	t.resMu.Lock()
	cleaned := make([]int, 0, len(t.dirty))
	for p := range t.dirty {
		cleaned = append(cleaned, p)
	}
	t.dirty = make(map[int]bool)
	t.persistedPages = len(t.pages)
	t.resMu.Unlock()
	sort.Ints(cleaned)
	t.db.evictMu.Lock()
	for _, p := range cleaned {
		t.db.evictQueue = append(t.db.evictQueue, evictEntry{t, p})
	}
	t.db.evictMu.Unlock()
}

// NewDBWithBackend returns an empty database whose heap pages live behind b,
// keeping at most budget bytes resident (0 = unlimited). Existing backend
// state is ignored; use OpenBackendDB to load it.
func NewDBWithBackend(b Backend, budget int64) *DB {
	db := NewDB()
	db.backend = b
	db.SetPageBudget(budget)
	return db
}

// OpenBackendDB materializes a database from a backend's committed state:
// the catalog supplies schema and heap geometry, pages stay cold until
// touched, and secondary structures (indexes, primary keys) are rebuilt by
// streaming scans under the page budget.
func OpenBackendDB(b Backend, budget int64) (*DB, error) {
	db := NewDBWithBackend(b, budget)

	if raw, ok, err := b.GetMeta(metaSettingsKey); err != nil {
		return nil, err
	} else if ok {
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&db.settings); err != nil {
			return nil, fmt.Errorf("engine: open backend settings: %w", err)
		}
	}
	if raw, ok, err := b.GetMeta(metaLSNKey); err != nil {
		return nil, err
	} else if ok && len(raw) == 8 {
		db.walLSN.Store(binary.BigEndian.Uint64(raw))
	}
	if raw, ok, err := b.GetMeta(metaNextIDKey); err != nil {
		return nil, err
	} else if ok && len(raw) == 8 {
		db.nextTableID.Store(binary.BigEndian.Uint64(raw))
	}

	metas, err := b.TableMetas()
	if err != nil {
		return nil, err
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	for _, m := range metas {
		if _, ok := db.tables[m.Name]; ok {
			return nil, fmt.Errorf("engine: open backend: duplicate table %q", m.Name)
		}
		t := newTable(m.Name, m.Cols, &db.stats)
		t.backend = b
		t.db = db
		t.id = m.ID
		t.pages = make([][]Row, m.Pages)
		t.resident = make([]bool, m.Pages)
		t.pageBytes = make([]int64, m.Pages)
		t.dirty = make(map[int]bool)
		t.nrows = m.NRows
		t.ndel = m.NDel
		t.dataBytes = m.Bytes
		t.persistedPages = m.Pages
		db.tables[m.Name] = t
	}
	// Second pass once all tables exist: rebuild indexes (streaming scans
	// that respect the budget) and re-declare keys and clustering order —
	// declarations only, the heap is already physically ordered.
	for _, m := range metas {
		t := db.tables[m.Name]
		for _, names := range m.Indexes {
			if err := t.CreateIndex(names...); err != nil {
				return nil, err
			}
		}
		if len(m.PK) > 0 {
			if err := t.SetPrimaryKey(m.PK...); err != nil {
				return nil, err
			}
		}
		if len(m.Clustered) > 0 {
			t.cluster = indexKeyName(m.Clustered)
		}
	}
	if err := db.BackendErr(); err != nil {
		return nil, err
	}
	return db, nil
}
