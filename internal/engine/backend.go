package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Backend is the engine's pluggable storage substrate: where heap pages and
// the table catalog live when they are not resident in memory. The default
// engine (NewDB) has no backend — every page is resident and nothing below
// this interface runs, which is the original all-in-memory behaviour. With a
// backend attached (NewDBWithBackend, OpenDisk), tables keep only a working
// set of pages resident under a byte budget: cold pages fault in through
// ReadPage — a ranged point read, since page p covers rids [p·256, (p+1)·256)
// in insert order — and checkpoints flush dirty pages back instead of
// re-serializing the whole store.
//
// Writes follow the store's checkpoint discipline: every mutation between two
// checkpoints lives only in memory (and in the write-ahead log), and one
// FlushBackend call persists them as a single atomic batch sealed by Commit.
// A backend must guarantee that a crash between Commits exposes exactly the
// previous committed state on reopen — the disk implementation does this with
// commit frames and torn-tail truncation (see internal/engine/diskv).
type Backend interface {
	// Kind names the backend ("memory", "disk") for status surfaces.
	Kind() string

	// TableMetas lists the catalog: one TableMeta per committed table.
	TableMetas() ([]TableMeta, error)
	// PutTableMeta stages a catalog entry, keyed by TableMeta.ID.
	PutTableMeta(m TableMeta) error
	// DeleteTable stages removal of a table's catalog entry and its pages
	// [0, pages).
	DeleteTable(id uint64, pages int) error

	// WritePage stages one heap page: its slots in order, nil for a
	// tombstoned slot. It returns the bytes staged. The backend keeps no
	// reference to slots or to the rows.
	WritePage(table uint64, page int, slots []Row) (int, error)
	// ReadPage fetches one heap page as the slot slice the table installs
	// resident; the caller owns it. Missing pages are an error — the
	// catalog said they exist.
	ReadPage(table uint64, page int) ([]Row, error)
	// DeletePage stages removal of one heap page (heap truncation after
	// Compact/Cluster shrank a table).
	DeletePage(table uint64, page int) error

	// GetMeta/PutMeta carry small store-level blobs (settings, WAL LSN,
	// table-id counter) outside the table catalog.
	GetMeta(key string) ([]byte, bool, error)
	PutMeta(key string, val []byte) error

	// Commit atomically seals everything staged since the last Commit.
	Commit() error
	// Maintain performs storage housekeeping (e.g. compaction of dead
	// frames) when worthwhile. Called after a successful Commit.
	Maintain() error
	// SizeBytes reports the backend's persistent footprint.
	SizeBytes() int64
	// Close releases the backend. The DB is unusable afterwards.
	Close() error
}

// TableMeta is a table's catalog entry: schema plus the heap geometry needed
// to reconstruct a cold table (page count, slot totals) without reading any
// page. Index and key definitions are declarations — the entries themselves
// are rebuilt by scanning on open, which is what keeps the backend a plain
// KV.
type TableMeta struct {
	ID        uint64
	Name      string
	Cols      []Column
	PK        []string
	Indexes   [][]string
	Clustered []string

	Pages int   // heap pages persisted
	NRows int   // total slots ever inserted (including tombstoned)
	NDel  int   // tombstoned slots
	Bytes int64 // live data bytes (maintained incrementally; SizeBytes source)
}

// encodeTableMeta serializes a catalog entry for a KV backend.
func encodeTableMeta(m TableMeta) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("engine: encode table meta: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeTableMeta is the inverse of encodeTableMeta.
func decodeTableMeta(data []byte) (TableMeta, error) {
	var m TableMeta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return TableMeta{}, fmt.Errorf("engine: decode table meta: %w", err)
	}
	return m, nil
}

// legacyPage is the shape pages were gob-encoded in before the page layout
// of pagecodec.go: the live rows in slot order beside a liveness mask whose
// length is the slot count.
type legacyPage struct {
	Live []bool
	Rows []Row
}

// decodeLegacyPage reads a gob-encoded page. Nothing writes this format any
// more; a store written before the page layout existed is read through here,
// page by page, until a flush or a compaction has rewritten it.
func decodeLegacyPage(data []byte) ([]Row, error) {
	var pd legacyPage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&pd); err != nil {
		return nil, fmt.Errorf("engine: decode legacy page: %v: %w", err, ErrCorruptPage)
	}
	if len(pd.Live) > RowsPerPage {
		return nil, fmt.Errorf("engine: decode legacy page: %d slots: %w", len(pd.Live), ErrCorruptPage)
	}
	slots := make([]Row, len(pd.Live), RowsPerPage)
	j := 0
	for i, live := range pd.Live {
		if !live {
			continue
		}
		if j == len(pd.Rows) {
			return nil, fmt.Errorf("engine: decode legacy page: more live slots than the %d rows: %w", len(pd.Rows), ErrCorruptPage)
		}
		slots[i] = pd.Rows[j]
		j++
	}
	if j != len(pd.Rows) {
		return nil, fmt.Errorf("engine: decode legacy page: %d live slots but %d rows: %w", j, len(pd.Rows), ErrCorruptPage)
	}
	return slots, nil
}

// MemBackend is the in-memory reference implementation of Backend: the
// engine's original map-per-table storage behind the same interface the disk
// backend implements. It exists for tests of the residency machinery (fault
// in, evict, flush) without disk I/O, and as the executable specification of
// the Backend contract. Rows are deep-copied across the boundary so aliasing
// bugs in the pager surface here too.
type MemBackend struct {
	mu    sync.RWMutex
	metas map[uint64]TableMeta
	pages map[uint64]map[int][]Row
	meta  map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		metas: make(map[uint64]TableMeta),
		pages: make(map[uint64]map[int][]Row),
		meta:  make(map[string][]byte),
	}
}

// Kind implements Backend.
func (b *MemBackend) Kind() string { return "memory" }

// TableMetas implements Backend.
func (b *MemBackend) TableMetas() ([]TableMeta, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]TableMeta, 0, len(b.metas))
	for _, m := range b.metas {
		out = append(out, m)
	}
	return out, nil
}

// PutTableMeta implements Backend.
func (b *MemBackend) PutTableMeta(m TableMeta) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	m.Cols = append([]Column(nil), m.Cols...)
	b.metas[m.ID] = m
	return nil
}

// DeleteTable implements Backend.
func (b *MemBackend) DeleteTable(id uint64, pages int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.metas, id)
	delete(b.pages, id)
	return nil
}

// cloneSlots copies a page deeply enough that neither side sees the other's
// later writes to a slot or to a cell.
func cloneSlots(slots []Row) []Row {
	cp := make([]Row, len(slots), RowsPerPage)
	for i, r := range slots {
		if r != nil {
			cp[i] = CloneRow(r)
		}
	}
	return cp
}

// slotsBytes is the memory backend's size of a page: a word per slot and the
// bytes of the live rows.
func slotsBytes(slots []Row) int64 { return int64(len(slots))*8 + liveBytes(slots) }

// WritePage implements Backend.
func (b *MemBackend) WritePage(table uint64, page int, slots []Row) (int, error) {
	cp := cloneSlots(slots)
	b.mu.Lock()
	defer b.mu.Unlock()
	tp := b.pages[table]
	if tp == nil {
		tp = make(map[int][]Row)
		b.pages[table] = tp
	}
	tp[page] = cp
	return int(slotsBytes(cp)), nil
}

// ReadPage implements Backend.
func (b *MemBackend) ReadPage(table uint64, page int) ([]Row, error) {
	b.mu.RLock()
	slots, ok := b.pages[table][page]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: mem backend: no page %d/%d", table, page)
	}
	return cloneSlots(slots), nil
}

// DeletePage implements Backend.
func (b *MemBackend) DeletePage(table uint64, page int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.pages[table], page)
	return nil
}

// GetMeta implements Backend.
func (b *MemBackend) GetMeta(key string) ([]byte, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.meta[key]
	return v, ok, nil
}

// PutMeta implements Backend.
func (b *MemBackend) PutMeta(key string, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.meta[key] = append([]byte(nil), val...)
	return nil
}

// Commit implements Backend (memory has no durability boundary).
func (b *MemBackend) Commit() error { return nil }

// Maintain implements Backend.
func (b *MemBackend) Maintain() error { return nil }

// SizeBytes implements Backend.
func (b *MemBackend) SizeBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n int64
	for _, tp := range b.pages {
		for _, slots := range tp {
			n += slotsBytes(slots)
		}
	}
	return n
}

// Close implements Backend.
func (b *MemBackend) Close() error { return nil }
