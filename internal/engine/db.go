package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DB is the engine's catalog: a set of named tables sharing one Stats
// instance, plus session settings (e.g. the preferred join method). It is the
// stand-in for the PostgreSQL instance OrpheusDB wraps.
type DB struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	settings map[string]string
	stats    Stats

	// walLSN is the last write-ahead-log sequence number whose effects are
	// reflected in this database. The store advances it after each logged
	// mutation; snapshots carry it so recovery knows where replay starts.
	walLSN atomic.Uint64

	// Storage-backend state (nil backend = pure in-memory engine; see
	// Backend and pager.go). residentBytes tracks the loaded working set
	// against pageBudget; evictQueue holds FIFO eviction candidates;
	// pendingDrops defers table removal to the next checkpoint so a crash
	// before it rolls the drop back together with the WAL.
	backend       Backend
	pageBudget    atomic.Int64
	residentBytes atomic.Int64
	evictMu       sync.Mutex
	evictQueue    []evictEntry
	nextTableID   atomic.Uint64
	pendingMu     sync.Mutex
	pendingDrops  []droppedTable
	backendErrMu  sync.Mutex
	backendErr    error
}

// droppedTable remembers a dropped table's backend footprint until the next
// checkpoint deletes it.
type droppedTable struct {
	id    uint64
	pages int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables:   make(map[string]*Table),
		settings: make(map[string]string),
	}
}

// Stats returns the shared I/O counters.
func (db *DB) Stats() *Stats { return &db.stats }

// WalLSN returns the last WAL sequence number applied to this database.
func (db *DB) WalLSN() uint64 { return db.walLSN.Load() }

// SetWalLSN overwrites the applied-LSN marker (used when loading snapshots).
func (db *DB) SetWalLSN(lsn uint64) { db.walLSN.Store(lsn) }

// AdvanceWalLSN raises the applied-LSN marker to lsn if it is higher.
// Concurrent mutators on independent datasets may finish their WAL appends
// out of LSN order; the max is always correct because a snapshot is only
// captured while all mutators are quiesced.
func (db *DB) AdvanceWalLSN(lsn uint64) {
	for {
		cur := db.walLSN.Load()
		if lsn <= cur || db.walLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// SetSetting stores a session setting (e.g. "join_method" = "hash").
func (db *DB) SetSetting(key, value string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.settings[key] = value
}

// Setting fetches a session setting.
func (db *DB) Setting(key string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.settings[key]
}

// JoinMethodSetting returns the session's preferred join method, defaulting
// to hash join (the paper's standard choice).
func (db *DB) JoinMethodSetting() JoinMethod {
	s := db.Setting("join_method")
	if s == "" {
		return HashJoin
	}
	m, err := ParseJoinMethod(s)
	if err != nil {
		return HashJoin
	}
	return m
}

// CreateTable creates a table with the given columns.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("engine: table %q: duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	t := newTable(name, cols, &db.stats)
	if db.backend != nil {
		db.attachBackend(t)
	}
	db.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// MustTable returns the named table or an error.
func (db *DB) MustTable(name string) (*Table, error) {
	if t := db.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("engine: no table %q", name)
}

// DropTable removes the named table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	t, ok := db.tables[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("engine: no table %q", name)
	}
	delete(db.tables, name)
	db.mu.Unlock()
	if db.backend != nil {
		t.resMu.Lock()
		persisted := t.persistedPages
		t.resMu.Unlock()
		db.pendingMu.Lock()
		db.pendingDrops = append(db.pendingDrops, droppedTable{t.id, persisted})
		db.pendingMu.Unlock()
		t.releaseResidency()
	}
	return nil
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool { return db.Table(name) != nil }

// RenameTable renames a table.
func (db *DB) RenameTable(old, new string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[old]
	if !ok {
		return fmt.Errorf("engine: no table %q", old)
	}
	if _, ok := db.tables[new]; ok {
		return fmt.Errorf("engine: table %q already exists", new)
	}
	delete(db.tables, old)
	t.name = new
	db.tables[new] = t
	return nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
