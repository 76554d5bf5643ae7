package engine

import (
	"fmt"
	"sort"
	"sync"
)

// RowsPerPage is the heap page capacity. Together with Stats it forms the
// engine's I/O model: reading a page sequentially costs 1 unit, via random
// access RandCost units.
const RowsPerPage = 256

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Kind
}

// RowID locates a row within a table's heap: page index and slot, packed in
// an int64. RowIDs are stable (the engine never compacts pages) but become
// invalid after Cluster rewrites the heap.
type RowID int64

// MakeRowID packs page and slot.
func MakeRowID(page, slot int) RowID { return RowID(int64(page)<<16 | int64(slot)) }

// Page returns the page index.
func (r RowID) Page() int { return int(int64(r) >> 16) }

// Slot returns the slot within the page.
func (r RowID) Slot() int { return int(int64(r) & 0xffff) }

// Table is a page-based heap of rows with optional indexes and an optional
// physical clustering order. Tables are created via DB.CreateTable and are
// not safe for concurrent mutation; the DB serializes access.
type Table struct {
	name    string
	cols    []Column
	colIdx  map[string]int
	pages   [][]Row
	nrows   int
	ndel    int
	pk      []int             // positions of primary-key columns, may be empty
	indexes map[string]*Index // by column-list key
	cluster string            // column list the heap is physically ordered by
	stats   *Stats

	// Residency state for tables attached to a storage backend (see
	// Backend and pager.go). With a nil backend every page is resident and
	// none of this is used.
	backend        Backend
	db             *DB
	id             uint64
	resMu          sync.Mutex
	resident       []bool       // pages[p] is loaded
	pageBytes      []int64      // estimated bytes of each resident page
	dirty          map[int]bool // resident pages modified since last flush
	dataBytes      int64        // live row bytes across the whole heap
	persistedPages int          // page count in the backend's committed catalog
}

// newTable builds an empty table.
func newTable(name string, cols []Column, stats *Stats) *Table {
	t := &Table{
		name:    name,
		cols:    append([]Column(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		indexes: make(map[string]*Index),
		stats:   stats,
	}
	for i, c := range cols {
		t.colIdx[c.Name] = i
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the table schema. Callers must not modify the slice.
func (t *Table) Columns() []Column { return t.cols }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int { return t.nrows - t.ndel }

// NumDeleted returns the number of tombstoned slots still occupying heap
// pages (reclaimed by Compact).
func (t *Table) NumDeleted() int { return t.ndel }

// NumPages returns the number of heap pages.
func (t *Table) NumPages() int { return len(t.pages) }

// PrimaryKey returns the positions of the primary key columns.
func (t *Table) PrimaryKey() []int { return t.pk }

// SetPrimaryKey declares the primary key columns by name and builds a unique
// ordered index over them. It does not validate existing rows; use
// CheckPrimaryKey for that.
func (t *Table) SetPrimaryKey(names ...string) error {
	pk := make([]int, len(names))
	for i, n := range names {
		j := t.ColIndex(n)
		if j < 0 {
			return fmt.Errorf("engine: table %s: no column %q", t.name, n)
		}
		pk[i] = j
	}
	t.pk = pk
	return t.CreateIndex(names...)
}

// AddColumn appends a column; existing rows get NULL. This backs the paper's
// ALTER TABLE path for schema evolution.
func (t *Table) AddColumn(c Column) error {
	if t.ColIndex(c.Name) >= 0 {
		return fmt.Errorf("engine: table %s: column %q exists", t.name, c.Name)
	}
	t.cols = append(t.cols, c)
	t.colIdx[c.Name] = len(t.cols) - 1
	for pi := 0; pi < len(t.pages); pi++ {
		p := t.writablePage(pi)
		for i := range p {
			if p[i] != nil {
				p[i] = append(p[i], NullValue())
				t.noteRowDelta(pi, 1)
			}
		}
	}
	return nil
}

// AlterColumnType widens the named column to the given kind, converting
// stored values. Only widening conversions supported by MoreGeneral are
// allowed.
func (t *Table) AlterColumnType(name string, k Kind) error {
	i := t.ColIndex(name)
	if i < 0 {
		return fmt.Errorf("engine: table %s: no column %q", t.name, name)
	}
	old := t.cols[i].Type
	if MoreGeneral(old, k) != k {
		return fmt.Errorf("engine: table %s: cannot narrow %s from %s to %s", t.name, name, old, k)
	}
	t.cols[i].Type = k
	for pi := 0; pi < len(t.pages); pi++ {
		p := t.writablePage(pi)
		for j := range p {
			if p[j] == nil || p[j][i].IsNull() {
				continue
			}
			before := rowBytes(p[j])
			p[j][i] = convert(p[j][i], k)
			t.noteRowDelta(pi, rowBytes(p[j])-before)
		}
	}
	return nil
}

// convert coerces v to kind k (widening only).
func convert(v Value, k Kind) Value {
	if v.K == k || v.IsNull() {
		return v
	}
	switch k {
	case KindFloat:
		return FloatValue(v.AsFloat())
	case KindString:
		return StringValue(v.String())
	case KindBitmap:
		if v.K == KindIntArray {
			return BitmapFromSlice(v.A)
		}
	case KindInt:
		switch v.K {
		case KindFloat:
			return IntValue(int64(v.F))
		case KindBool:
			return IntValue(v.I)
		}
	}
	return v
}

// Insert appends a row and returns its RowID. The row is stored as given
// (not copied); callers must not mutate it afterwards. Indexes are
// maintained.
func (t *Table) Insert(r Row) (RowID, error) {
	if len(r) != len(t.cols) {
		return 0, fmt.Errorf("engine: table %s: row has %d values, want %d", t.name, len(r), len(t.cols))
	}
	var id RowID
	if t.backend == nil {
		if len(t.pages) == 0 || len(t.pages[len(t.pages)-1]) == RowsPerPage {
			t.pages = append(t.pages, make([]Row, 0, RowsPerPage))
		}
		p := len(t.pages) - 1
		t.pages[p] = append(t.pages[p], r)
		id = MakeRowID(p, len(t.pages[p])-1)
	} else {
		p, s := t.backendAppend(r, rowBytes(r))
		id = MakeRowID(p, s)
	}
	t.nrows++
	for _, ix := range t.indexes {
		ix.insert(r, id)
	}
	return id, nil
}

// InsertMany appends rows in bulk.
func (t *Table) InsertMany(rows []Row) error {
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches the row at id, charging a random page access. Returns nil for
// deleted slots.
func (t *Table) Get(id RowID) Row {
	p, s := id.Page(), id.Slot()
	if p < 0 || p >= len(t.pages) || s >= t.slotCount(p) {
		return nil
	}
	t.stats.RandPages.Add(1)
	r := t.page(p)[s]
	if r != nil {
		t.stats.RowsScanned.Add(1)
	}
	return r
}

// getNoCharge fetches a row without I/O accounting (for index maintenance).
func (t *Table) getNoCharge(id RowID) Row {
	p, s := id.Page(), id.Slot()
	if p < 0 || p >= len(t.pages) || s >= t.slotCount(p) {
		return nil
	}
	return t.page(p)[s]
}

// Scan iterates all live rows sequentially, charging one sequential page per
// page visited. The callback must not retain the row slice across calls if it
// mutates it. Iteration stops early if fn returns false.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	for p := 0; p < len(t.pages); p++ {
		page := t.page(p)
		t.stats.SeqPages.Add(1)
		// The counter is shared by every request goroutine: one add per
		// page, not one per row.
		scanned := int64(0)
		for s, r := range page {
			if r == nil {
				continue
			}
			scanned++
			if !fn(MakeRowID(p, s), r) {
				t.stats.RowsScanned.Add(scanned)
				return
			}
		}
		t.stats.RowsScanned.Add(scanned)
	}
}

// Update replaces the row at id, maintaining indexes.
func (t *Table) Update(id RowID, r Row) error {
	if len(r) != len(t.cols) {
		return fmt.Errorf("engine: table %s: row has %d values, want %d", t.name, len(r), len(t.cols))
	}
	old := t.getNoCharge(id)
	if old == nil {
		return fmt.Errorf("engine: table %s: update of missing row %v", t.name, id)
	}
	for _, ix := range t.indexes {
		// Updates that leave the indexed key unchanged (e.g. appending a
		// version id to a vlist) skip index maintenance entirely.
		if ix.keyOf(old) == ix.keyOf(r) {
			continue
		}
		ix.remove(old, id)
		ix.insert(r, id)
	}
	t.writablePage(id.Page())[id.Slot()] = r
	t.noteRowDelta(id.Page(), rowBytes(r)-rowBytes(old))
	t.stats.RandPages.Add(1)
	return nil
}

// DeleteBatch tombstones many rows at once, sweeping each index a single
// time instead of splicing per row — the fast path for migrations and bulk
// DELETE statements.
func (t *Table) DeleteBatch(ids []RowID) {
	if len(ids) == 0 {
		return
	}
	drop := make(map[RowID]bool, len(ids))
	for _, id := range ids {
		if t.getNoCharge(id) != nil && !drop[id] {
			drop[id] = true
		}
	}
	for id := range drop {
		pg := t.writablePage(id.Page())
		t.noteRowDelta(id.Page(), -rowBytes(pg[id.Slot()]))
		pg[id.Slot()] = nil
	}
	t.ndel += len(drop)
	t.stats.RandPages.Add(int64(len(drop)))
	for _, ix := range t.indexes {
		ix.removeIDs(drop)
	}
}

// Delete tombstones the row at id.
func (t *Table) Delete(id RowID) {
	old := t.getNoCharge(id)
	if old == nil {
		return
	}
	for _, ix := range t.indexes {
		ix.remove(old, id)
	}
	t.writablePage(id.Page())[id.Slot()] = nil
	t.noteRowDelta(id.Page(), -rowBytes(old))
	t.ndel++
	t.stats.RandPages.Add(1)
}

// indexKeyName canonicalizes a column list.
func indexKeyName(names []string) string {
	k := ""
	for i, n := range names {
		if i > 0 {
			k += ","
		}
		k += n
	}
	return k
}

// CreateIndex builds an ordered index over the named columns. Creating an
// existing index is a no-op.
func (t *Table) CreateIndex(names ...string) error {
	key := indexKeyName(names)
	if _, ok := t.indexes[key]; ok {
		return nil
	}
	cols := make([]int, len(names))
	for i, n := range names {
		j := t.ColIndex(n)
		if j < 0 {
			return fmt.Errorf("engine: table %s: no column %q", t.name, n)
		}
		cols[i] = j
	}
	ix := newIndex(cols)
	for p := 0; p < len(t.pages); p++ {
		for s, r := range t.page(p) {
			if r != nil {
				ix.insert(r, MakeRowID(p, s))
			}
		}
	}
	t.indexes[key] = ix
	return nil
}

// Index returns the index over the named columns, or nil.
func (t *Table) Index(names ...string) *Index { return t.indexes[indexKeyName(names)] }

// ClusteredOn returns the column-list key the heap is physically ordered by,
// or "".
func (t *Table) ClusteredOn() string { return t.cluster }

// Cluster physically rewrites the heap in the order of the named columns,
// like PostgreSQL's CLUSTER. RowIDs change; indexes are rebuilt.
func (t *Table) Cluster(names ...string) error {
	cols := make([]int, len(names))
	for i, n := range names {
		j := t.ColIndex(n)
		if j < 0 {
			return fmt.Errorf("engine: table %s: no column %q", t.name, n)
		}
		cols[i] = j
	}
	rows := make([]Row, 0, t.NumRows())
	for p := 0; p < len(t.pages); p++ {
		for _, r := range t.page(p) {
			if r != nil {
				rows = append(rows, r)
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range cols {
			if cmp := Compare(rows[i][c], rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	t.resetHeap()
	old := t.indexes
	t.indexes = make(map[string]*Index)
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	t.rebuildIndexes(old)
	t.cluster = indexKeyName(names)
	return nil
}

// rebuildIndexes replaces every index in old with one rebuilt from the
// current heap (used after Cluster/Compact invalidate all RowIDs).
func (t *Table) rebuildIndexes(old map[string]*Index) {
	for key := range old {
		ix := newIndex(old[key].cols)
		for p := 0; p < len(t.pages); p++ {
			for s, r := range t.page(p) {
				if r != nil {
					ix.insert(r, MakeRowID(p, s))
				}
			}
		}
		t.indexes[key] = ix
	}
}

// Compact rewrites the heap dropping tombstoned slots, preserving scan
// order. RowIDs change; indexes are rebuilt. Sequential scans pay per heap
// slot whether or not it is live, so a table that shrank (bulk deletes,
// migration GC) needs this for scan cost to track live rows again.
func (t *Table) Compact() error {
	if t.ndel == 0 {
		return nil
	}
	rows := make([]Row, 0, t.NumRows())
	for p := 0; p < len(t.pages); p++ {
		for _, r := range t.page(p) {
			if r != nil {
				rows = append(rows, r)
			}
		}
	}
	t.resetHeap()
	old := t.indexes
	t.indexes = make(map[string]*Index)
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	t.rebuildIndexes(old)
	return nil
}

// CheckPrimaryKey verifies that no two live rows share primary key values.
func (t *Table) CheckPrimaryKey() error {
	if len(t.pk) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, t.NumRows())
	var dup string
	t.Scan(func(_ RowID, r Row) bool {
		vals := make([]Value, len(t.pk))
		for i, c := range t.pk {
			vals[i] = r[c]
		}
		k := EncodeKey(vals...)
		if _, ok := seen[k]; ok {
			dup = k
			return false
		}
		seen[k] = struct{}{}
		return true
	})
	if dup != "" {
		return fmt.Errorf("engine: table %s: duplicate primary key", t.name)
	}
	return nil
}

// SizeBytes estimates the storage footprint of the table including index
// entries, mirroring the paper's practice of counting index size in storage
// comparisons.
func (t *Table) SizeBytes() int64 {
	var n int64
	if t.backend != nil {
		// Walking the heap would fault every cold page in; the pager
		// maintains the live-byte total incrementally instead.
		t.resMu.Lock()
		n = t.dataBytes
		t.resMu.Unlock()
	} else {
		for _, page := range t.pages {
			for _, r := range page {
				if r == nil {
					continue
				}
				n += rowBytes(r)
			}
		}
	}
	for _, ix := range t.indexes {
		n += int64(ix.Len()) * 16 // key pointer + rowid, rough b-tree entry
	}
	return n
}

// rowBytes estimates the on-disk size of one row.
func rowBytes(r Row) int64 {
	var n int64 = 4 // header
	for _, v := range r {
		switch v.K {
		case KindInt, KindFloat:
			n += 8
		case KindBool:
			n++
		case KindString:
			n += int64(len(v.S)) + 4
		case KindIntArray:
			n += int64(len(v.A))*8 + 4
		case KindBitmap:
			n += v.B.SerializedSizeBytes()
		case KindNull:
			n++
		}
	}
	return n
}
