// Package orpheusdb is a Go reproduction of OrpheusDB (Huang et al., VLDB
// 2017): a dataset version control system that bolts git-style versioning
// onto a relational database while keeping the database itself unaware of
// versions. A Store wraps an embedded relational engine; Datasets (CVDs —
// collaborative versioned datasets) live inside it under one of the paper's
// data models; SQL queries run against specific versions via the
// VERSION ... OF CVD syntax; and the partition optimizer (LYRESPLIT) keeps
// checkouts fast as the version graph grows.
//
// Quick start:
//
//	store := orpheusdb.NewStore()
//	ds, _ := store.Init("prot", cols, orpheusdb.InitOptions{PrimaryKey: []string{"p1", "p2"}})
//	v1, _ := ds.Commit(rows, nil, "initial import")
//	rows2, _ := ds.Checkout(v1)
//	res, _ := store.Run("SELECT count(*) FROM VERSION 1 OF CVD prot")
//
// A Store is safe for concurrent use by multiple goroutines (e.g. the HTTP
// service in internal/server). Locking is layered so independent datasets
// never contend: a store-level lock guards the dataset registry and catalog,
// each Dataset carries its own RWMutex (commits on dataset A never block
// checkouts on dataset B, and block checkouts on A only while they install)
// and writer mutex, and a store-wide save lock is held shared by mutators
// and exclusively by Checkpoint, so checkpoints observe a quiescent engine.
package orpheusdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"orpheusdb/internal/cache"
	"orpheusdb/internal/core"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/sql"
	"orpheusdb/internal/vgraph"
	"orpheusdb/internal/wal"
)

// Re-exported identifiers so applications only import this package.
type (
	// VersionID identifies a version of a dataset.
	VersionID = vgraph.VersionID
	// RecordID identifies an immutable record.
	RecordID = vgraph.RecordID
	// Column describes one attribute.
	Column = engine.Column
	// Row is one tuple.
	Row = engine.Row
	// Value is one cell.
	Value = engine.Value
	// ModelKind names a data model.
	ModelKind = core.ModelKind
	// VersionInfo is version-level metadata.
	VersionInfo = core.VersionInfo
	// Result is a query result.
	Result = sql.Result
	// SetOp is a record-membership operator for multi-version scans.
	SetOp = core.SetOp
	// StorageBreakdown splits dataset storage into membership vs data bytes.
	StorageBreakdown = core.StorageBreakdown
	// CacheStats is a snapshot of the checkout cache's counters.
	CacheStats = cache.Stats
	// DatasetCacheStats is one dataset's share of the checkout cache.
	DatasetCacheStats = cache.DatasetStats
)

// Membership set operators for Dataset.MultiVersionCheckout and the SQL
// `VERSION v1 INTERSECT v2 OF CVD name` syntax.
const (
	SetUnion     = core.SetOpUnion
	SetIntersect = core.SetOpIntersect
	SetExcept    = core.SetOpExcept
)

// PartitionedRlist is the data model every dataset is stored under: the
// partitioned split-by-rlist representation of Section 4. A dataset starts
// with one partition, which is the split-by-rlist layout of Section 3.
const PartitionedRlist = core.PartitionedRlistModel

// ErrUnservedModel marks a dataset, or a request to create one, naming a
// data model the store does not serve, such as one of the paper's Section 3
// baselines.
var ErrUnservedModel = core.ErrUnservedModel

// Value constructors, re-exported.
var (
	Int    = engine.IntValue
	Float  = engine.FloatValue
	String = engine.StringValue
	Bool   = engine.BoolValue
	Array  = engine.ArrayValue
	Null   = engine.NullValue
)

// Column kinds, re-exported.
const (
	KindInt      = engine.KindInt
	KindFloat    = engine.KindFloat
	KindString   = engine.KindString
	KindBool     = engine.KindBool
	KindIntArray = engine.KindIntArray
)

// DefaultSaveDelay is the debounce interval of the asynchronous saves
// mutators schedule.
const DefaultSaveDelay = 250 * time.Millisecond

// DefaultCacheBudget is the byte budget the checkout cache starts with.
// Adjust with SetCacheBudget (0 disables caching).
const DefaultCacheBudget = cache.DefaultBudget

// Store is an OrpheusDB instance: an embedded relational database hosting any
// number of CVDs, a staging area, and user accounts. All methods are safe for
// concurrent use.
type Store struct {
	db   *engine.DB
	path string

	// mu guards the dataset registry, the CVD catalog and user tables, and
	// the active user name. Held exclusively while the catalog mutates
	// (Init, Drop, CreateUser) so readers never observe a half-written
	// catalog row.
	mu       sync.RWMutex
	user     string
	datasets map[string]*Dataset

	// ioMu is the save lock. Dataset-scoped writers (commits, optimize)
	// hold it shared — their tables are guarded by the per-dataset lock,
	// so unrelated datasets proceed concurrently. Operations touching
	// tables a raw SQL query could name concurrently (catalog, staging,
	// users) hold it exclusively, as do SQL write statements and Checkpoint
	// itself, so checkpoints and scans never observe in-flight writes.
	// Pure readers skip it entirely.
	ioMu sync.RWMutex

	// stagingMu serializes operations on the shared staging/provenance
	// tables, which every dataset and user writes into.
	stagingMu sync.Mutex

	// diskMu serializes checkpoints, so an async save and a Flush never
	// interleave writes to the same path, and CloseWAL, so no checkpoint
	// truncates a log being closed.
	diskMu sync.Mutex

	// cache is the version-aware checkout cache consulted by every
	// checkout and versioned scan. Read paths populate it under dataset
	// read locks. Entries are keyed by immutable version sets, so a commit
	// or merge drops only the all-versions view, a migration batch only
	// the versions it moved, and only schema changes, drops and re-inits
	// drop a whole dataset (invalidateCache). Every mutator invalidates
	// while it holds the dataset lock exclusively, where it makes its
	// change visible, so no reader can observe a stale entry. Set once in
	// newStore, then read-only.
	cache *cache.Cache

	// Debounced async persistence (scheduleSave / Flush).
	saveMu    sync.Mutex
	saveDelay time.Duration
	saveTimer *time.Timer
	saveArmed bool
	saveErr   error

	// Write-ahead log (EnableWAL; nil when disabled). Set once before the
	// store is shared, then read-only until CloseWAL clears it. walErr
	// records the first append or install failure and installErr the first
	// install failure (both guarded by saveMu); ckptLSN is the watermark
	// covered by the last successful checkpoint.
	wal        *wal.Log
	walCfg     WALConfig
	walErr     error
	installErr error
	ckptLSN    atomic.Uint64

	// loggedHook, when set, runs between a commit's or merge's WAL append
	// and its install. A test seam; nil in production.
	loggedHook func()

	// obs is the store's observability substrate: metrics registry, tracer,
	// and the histogram handles the layers observe into (see obs_store.go).
	// Set once in newStore, then read-only.
	obs *storeObs

	// optimizer is the background partition optimizer, nil until
	// StartPartitionOptimizer (see optimizer.go).
	optimizer atomic.Pointer[PartitionOptimizer]

	// history is the retained metrics sampler, nil until
	// StartMetricsHistory (see telemetry.go).
	history atomic.Pointer[obs.History]

	// readOnly gates every mutator: a follower replica applies the
	// primary's WAL stream and serves reads but rejects local writes
	// (see repl_store.go). Flipped false by promotion.
	readOnly atomic.Bool

	// repl is the attached replication driver (a follower's state machine),
	// nil on a primary. Guarded by replMu.
	replMu sync.Mutex
	repl   Replication
}

// newStore wraps a loaded database. Before anything can open a dataset or
// replay a WAL record, it upgrades legacy split-by-rlist datasets in place
// (core.UpgradeLegacyLayouts).
func newStore(db *engine.DB, path string) (*Store, error) {
	if err := core.UpgradeLegacyLayouts(db); err != nil {
		return nil, err
	}
	c := cache.New(DefaultCacheBudget, db.Stats())
	// Seed the generation epoch per process so ETag-style version tokens
	// minted before a restart can never validate against post-restart
	// content (the in-memory generation counters would otherwise restart
	// at zero and could collide).
	c.SeedEpoch(uint64(time.Now().UnixNano()))
	s := &Store{
		db:        db,
		path:      path,
		user:      "default",
		datasets:  make(map[string]*Dataset),
		saveDelay: DefaultSaveDelay,
		cache:     c,
		obs:       newStoreObs(),
	}
	s.registerCollectors()
	return s, nil
}

// NewStore creates an in-memory store.
func NewStore() *Store {
	s, err := newStore(engine.NewDB(), "")
	if err != nil {
		panic(err) // an empty database holds nothing to upgrade
	}
	return s
}

// BackendKind selects the storage engine behind a persisted store.
type BackendKind string

const (
	// BackendAuto sniffs the existing file format (new stores default to
	// the in-memory engine with gob snapshots).
	BackendAuto BackendKind = ""
	// BackendMemory keeps every record in memory; checkpoints write whole
	// gob snapshots. The original engine.
	BackendMemory BackendKind = "memory"
	// BackendDisk keeps records in a single-file page KV; only a
	// byte-budgeted working set stays resident and checkpoints flush dirty
	// pages. Datasets can exceed RAM.
	BackendDisk BackendKind = "disk"
)

// StoreOptions tunes OpenStoreWithOptions.
type StoreOptions struct {
	// Backend picks the storage engine. BackendAuto matches whatever is on
	// disk already.
	Backend BackendKind
	// PageBudgetBytes caps the disk backend's resident working set
	// (0 = DefaultPageBudget). Ignored by the memory backend.
	PageBudgetBytes int64
}

// DefaultPageBudget is the disk backend's resident working-set cap when none
// is configured.
const DefaultPageBudget int64 = 256 << 20

// minStoreFileLen is the disk engine's file header length (diskv: magic,
// version, reserved); a gob snapshot is longer still.
const minStoreFileLen = 8

// OpenStoreWithOptions opens (or creates) a store persisted at path. With
// the zero StoreOptions it sniffs the existing file's format to pick the
// storage engine (gob snapshot → memory, page KV → disk), and a new store
// gets the memory engine; opts.Backend makes the choice explicit.
func OpenStoreWithOptions(path string, opts StoreOptions) (*Store, error) {
	if opts.PageBudgetBytes <= 0 {
		opts.PageBudgetBytes = DefaultPageBudget
	}
	isDisk, err := engine.IsDiskFile(path)
	if err != nil {
		return nil, err
	}
	// A file shorter than either format's header holds no store: it is what a
	// crash between creating the file and its first synced header leaves, and
	// the disk engine's own recovery starts such a file afresh.
	exists := false
	if fi, serr := os.Stat(path); serr == nil {
		exists = fi.Size() >= minStoreFileLen
	} else if !os.IsNotExist(serr) {
		return nil, serr
	}
	isDisk = isDisk && exists
	kind := opts.Backend
	if kind == BackendAuto {
		if isDisk {
			kind = BackendDisk
		} else {
			kind = BackendMemory
		}
	}
	switch kind {
	case BackendDisk:
		if exists && !isDisk {
			return nil, fmt.Errorf("orpheusdb: %s holds a gob snapshot, not a disk-backend store; open with -backend=memory (or move it aside)", path)
		}
		db, err := engine.OpenDisk(path, engine.DiskOptions{PageBudgetBytes: opts.PageBudgetBytes})
		if err != nil {
			return nil, err
		}
		s, err := newStore(db, path)
		if err != nil {
			db.CloseBackend()
			return nil, err
		}
		return s, nil
	case BackendMemory:
		if isDisk {
			return nil, fmt.Errorf("orpheusdb: %s holds a disk-backend store; open with -backend=disk", path)
		}
		if !exists {
			return newStore(engine.NewDB(), path)
		}
		db, err := engine.Load(path)
		if err != nil {
			return nil, err
		}
		return newStore(db, path)
	default:
		return nil, fmt.Errorf("orpheusdb: unknown backend %q (want memory or disk)", kind)
	}
}

// BackendKind names the store's storage engine ("memory" or "disk").
func (s *Store) BackendKind() BackendKind { return BackendKind(s.db.BackendKind()) }

// SetPageBudget adjusts the disk backend's resident working-set cap at
// runtime (no-op for memory stores). See engine.DB.SetPageBudget.
func (s *Store) SetPageBudget(n int64) { s.db.SetPageBudget(n) }

// Checkpoint persists the store to its path synchronously (no-op for stores
// without a path, whose WAL, if any, is their persistence). The save lock is
// held exclusively only while the engine captures its state: a snapshot
// copy on the memory backend, a dirty-page flush on the disk backend. A
// snapshot's gob encode and file write run after the lock is released, so
// in-flight requests stall only for the copy.
//
// With a WAL attached, the checkpoint carries the applied-LSN watermark, and
// on success the log segments it made obsolete are truncated. The bytes it
// wrote are counted in engine.Stats (Checkpoints / CheckpointBytes).
func (s *Store) Checkpoint() error {
	if s.path == "" {
		return nil
	}
	s.saveMu.Lock()
	stuck := s.installErr
	s.saveMu.Unlock()
	if stuck != nil {
		// The log holds a record memory lacks; a checkpoint would record a
		// watermark past it (see installFailed).
		return fmt.Errorf("orpheusdb: checkpoint refused until restart: %w", stuck)
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	var snap *engine.DBSnapshot
	var written int64
	var err error
	s.ioMu.Lock()
	if s.db.Backend() == nil {
		snap = s.db.Snapshot()
	} else {
		written, err = s.db.FlushBackend()
	}
	lsn := s.db.WalLSN()
	s.ioMu.Unlock()
	if snap != nil {
		written, err = snap.WriteFile(s.path)
	}
	if err == nil {
		stats := s.db.Stats()
		stats.Checkpoints.Add(1)
		stats.CheckpointBytes.Add(written)
		s.ckptLSN.Store(lsn)
		if s.wal != nil {
			err = s.wal.Truncate(lsn)
		}
	}
	s.saveMu.Lock()
	s.saveErr = err
	s.saveMu.Unlock()
	// Retained metrics history rides the checkpoint path (best-effort
	// sidecar; see telemetry.go).
	s.saveHistory()
	return err
}

// SetSaveDelay changes the debounce interval of the asynchronous saves
// mutators schedule.
func (s *Store) SetSaveDelay(d time.Duration) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if d <= 0 {
		d = DefaultSaveDelay
	}
	s.saveDelay = d
}

// scheduleSave requests an asynchronous save: the store checkpoints itself
// at most saveDelay later, coalescing bursts of mutations into one
// checkpoint so persistence stays off the request hot path. Every mutator
// calls it. No-op for in-memory stores.
func (s *Store) scheduleSave() {
	if s.path == "" {
		return
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if s.saveArmed {
		return
	}
	s.saveArmed = true
	s.saveTimer = time.AfterFunc(s.saveDelay, s.asyncSave)
}

func (s *Store) asyncSave() {
	s.saveMu.Lock()
	s.saveArmed = false
	s.saveMu.Unlock()
	_ = s.Checkpoint() // outcome recorded in saveErr by Checkpoint itself
}

// SaveErr reports the outcome of the most recent save (sync or async).
func (s *Store) SaveErr() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.saveErr
}

// Flush cancels any pending debounced save and checkpoints synchronously,
// also fsyncing the WAL tail (which matters under FsyncInterval/FsyncOff).
func (s *Store) Flush() error {
	s.saveMu.Lock()
	if s.saveTimer != nil {
		s.saveTimer.Stop()
	}
	s.saveArmed = false
	s.saveMu.Unlock()
	err := s.Checkpoint()
	if s.wal != nil {
		if serr := s.wal.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Close flushes pending state to disk, closes the WAL the store owns, and,
// for disk-backend stores, releases the store file (and its lock). Call it
// before process exit. A memory-backend store remains usable after Close,
// without a WAL; a disk-backend store does not.
func (s *Store) Close() error {
	err := s.Flush()
	if cerr := s.CloseWAL(); err == nil {
		err = cerr
	}
	if cerr := s.db.CloseBackend(); err == nil {
		err = cerr
	}
	return err
}

// DB exposes the underlying engine database (for advanced use and tests).
// Access through DB bypasses the store's locking; do not mix it with
// concurrent Store use.
func (s *Store) DB() *engine.DB { return s.db }

// SetUser switches the active user (config command).
func (s *Store) SetUser(name string) error {
	if name == "" {
		return fmt.Errorf("orpheusdb: empty user name")
	}
	s.mu.Lock()
	s.user = name
	s.mu.Unlock()
	return nil
}

// WhoAmI returns the active user name.
func (s *Store) WhoAmI() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.user
}

// CreateUser registers a new user and switches to it.
func (s *Store) CreateUser(name string) error {
	if err := s.AddUser(name); err != nil {
		return err
	}
	return s.SetUser(name)
}

// AddUser registers a new user without switching to it (the multi-client
// variant of CreateUser, used by the HTTP service).
func (s *Store) AddUser(name string) error {
	if err := s.writable(); err != nil {
		return err
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := core.CreateUser(s.db, name); err != nil {
		return err
	}
	if err := s.logMutation(&wal.Record{Type: wal.TypeUserAdd, User: name}); err != nil {
		return err
	}
	s.scheduleSave()
	return nil
}

// Users lists registered users.
func (s *Store) Users() []string {
	s.ioMu.RLock() // the users table is SQL-nameable; exclude DML writes
	defer s.ioMu.RUnlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return core.Users(s.db)
}

// InitOptions configures dataset creation.
type InitOptions struct {
	// Model may be empty, PartitionedRlist, or the legacy "split-by-rlist",
	// all of which create a one-partition PartitionedRlist dataset; any
	// other model is an ErrUnservedModel error.
	Model ModelKind
	// PrimaryKey names the relation's key attributes.
	PrimaryKey []string
}

// Dataset is a handle to one CVD. Handles are cached: all callers asking for
// the same CVD share one Dataset and therefore one lock, so concurrent
// commits and checkouts coordinate correctly. All methods are safe for
// concurrent use.
type Dataset struct {
	store *Store
	cvd   *core.CVD

	// mu is the per-dataset lock. Checkout/Diff/Info and friends hold it
	// shared. A commit or merge holds it shared while it plans and
	// exclusively only to install; every other mutator (Drop, branch
	// changes, schema and staged-table commits, each repartitioning batch)
	// holds it exclusively for its whole critical section. Take it through
	// rlock, lock and lockInstall, which time the wait.
	mu sync.RWMutex
	// wmu is the writer mutex. Every mutator holds it from before it reads
	// the state it changes until it has installed its change, so the
	// dataset has at most one mutator in flight and a plan made under the
	// shared lock is still valid when it is installed.
	wmu sync.Mutex
	// migrateMu serializes the dataset's repartitionings, held across a
	// whole plan. Lock order: migrateMu → ioMu → wmu → mu (see
	// repartition.go).
	migrateMu sync.Mutex
	// dropped marks a handle whose CVD was removed by Drop; subsequent
	// operations fail instead of writing stale state into a possibly
	// re-created dataset of the same name. Guarded by mu.
	dropped bool
}

// aliveLocked reports an error for a handle invalidated by Drop. Caller
// holds d.mu (shared or exclusive).
func (d *Dataset) aliveLocked() error {
	if d.dropped {
		return fmt.Errorf("orpheusdb: dataset %q was dropped; reopen it with Store.Dataset", d.cvd.Name())
	}
	return nil
}

// rlock takes d.mu shared, observing how long the caller waited in
// orpheus_dataset_lock_wait_seconds{mode="read"}.
func (d *Dataset) rlock() {
	start := time.Now()
	d.mu.RLock()
	d.store.obs.lockWaitRead.ObserveDuration(time.Since(start))
}

// waitWriter takes the writer mutex and returns how long that took.
func (d *Dataset) waitWriter() time.Duration {
	start := time.Now()
	d.wmu.Lock()
	return time.Since(start)
}

// lockInstall takes d.mu exclusively for a caller already holding the writer
// mutex, which it waited for for writerWait. {mode="write"} observes both
// waits as one.
func (d *Dataset) lockInstall(writerWait time.Duration) {
	start := time.Now()
	d.mu.Lock()
	d.store.obs.lockWaitWrite.ObserveDuration(writerWait + time.Since(start))
}

// lock is a mutator's single exclusive section: the writer mutex, then d.mu
// exclusively. unlock releases both.
func (d *Dataset) lock()   { d.lockInstall(d.waitWriter()) }
func (d *Dataset) unlock() { d.mu.Unlock(); d.wmu.Unlock() }

// Init creates a new CVD.
func (s *Store) Init(name string, cols []Column, opts InitOptions) (*Dataset, error) {
	if err := s.writable(); err != nil {
		return nil, err
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := core.Init(s.db, name, cols, core.InitOptions{
		Model:      opts.Model,
		PrimaryKey: opts.PrimaryKey,
	})
	if err != nil {
		return nil, err
	}
	c.SetCache(s.cache)
	c.SetMetrics(s.obs.core)
	c.SetHeat(core.NewHeat())
	rec := &wal.Record{
		Type:       wal.TypeInit,
		Dataset:    name,
		Model:      string(PartitionedRlist),
		Cols:       cols,
		PrimaryKey: opts.PrimaryKey,
	}
	// A dropped dataset of the same name may have left clients holding
	// version tokens; advancing the generation keeps them from validating
	// against the new incarnation.
	s.invalidateCache(rec)
	d := &Dataset{store: s, cvd: c}
	s.datasets[name] = d
	if err := s.logMutation(rec); err != nil {
		return nil, err
	}
	s.scheduleSave()
	return d, nil
}

// Dataset opens an existing CVD by name. The returned handle is shared by
// every caller asking for the same name.
func (s *Store) Dataset(name string) (*Dataset, error) {
	s.ioMu.RLock() // the catalog is SQL-nameable; exclude DML writes
	defer s.ioMu.RUnlock()
	return s.dataset(name)
}

// dataset is Dataset for callers already holding ioMu (Run's materializer).
func (s *Store) dataset(name string) (*Dataset, error) {
	s.mu.RLock()
	if d, ok := s.datasets[name]; ok {
		s.mu.RUnlock()
		return d, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.datasets[name]; ok {
		return d, nil
	}
	c, err := core.Open(s.db, name)
	if err != nil {
		return nil, err
	}
	c.SetCache(s.cache)
	c.SetMetrics(s.obs.core)
	c.SetHeat(core.NewHeat())
	d := &Dataset{store: s, cvd: c}
	s.datasets[name] = d
	return d, nil
}

// List names the CVDs in the store (ls command).
func (s *Store) List() []string {
	s.ioMu.RLock() // the catalog is SQL-nameable; exclude DML writes
	defer s.ioMu.RUnlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return core.ListCVDs(s.db)
}

// Drop removes a CVD and all its versions (drop command). Outstanding
// Dataset handles are invalidated: their operations fail until reopened. A
// dataset set aside under a data model the store does not serve
// (ErrUnservedModel) has no handle; dropping it removes its catalog row.
func (s *Store) Drop(name string) error {
	if err := s.writable(); err != nil {
		return err
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		c, err := core.Open(s.db, name)
		if errors.Is(err, ErrUnservedModel) {
			err = core.DropSetAside(s.db, name)
		} else if err == nil {
			d = &Dataset{store: s, cvd: c}
		}
		if err != nil {
			return err
		}
	}
	if d != nil {
		d.lock()
		defer d.unlock()
		if err := d.cvd.Drop(); err != nil {
			return err
		}
		d.dropped = true
		delete(s.datasets, name)
	}
	rec := &wal.Record{Type: wal.TypeDrop, Dataset: name}
	s.invalidateCache(rec)
	if err := s.logMutation(rec); err != nil {
		return err
	}
	s.scheduleSave()
	return nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.cvd.Name() }

// Columns returns a copy of the dataset's current data attributes (a copy
// because schema-evolving commits mutate the live slice in place).
func (d *Dataset) Columns() []Column {
	d.rlock()
	defer d.mu.RUnlock()
	return append([]Column(nil), d.cvd.Columns()...)
}

// PrimaryKey returns the relation's key attribute names.
func (d *Dataset) PrimaryKey() []string {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.PrimaryKey()
}

// Model returns the data model the dataset is stored under, which is always
// PartitionedRlist.
func (d *Dataset) Model() ModelKind { return PartitionedRlist }

// Versions lists version ids in commit order.
func (d *Dataset) Versions() []VersionID {
	d.rlock()
	defer d.mu.RUnlock()
	return append([]VersionID(nil), d.cvd.Versions()...)
}

// LatestVersion returns the most recent version id (0 if none).
func (d *Dataset) LatestVersion() VersionID {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.LatestVersion()
}

// Info returns a version's metadata.
func (d *Dataset) Info(v VersionID) (*VersionInfo, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.Info(v)
}

// Commit adds a new version derived from parents and returns its id.
func (d *Dataset) Commit(rows []Row, parents []VersionID, msg string) (VersionID, error) {
	return d.CommitCtx(context.Background(), rows, parents, msg)
}

// CommitCtx is Commit with trace propagation: when ctx carries a trace (the
// HTTP middleware starts one per request), the core commit phases, the WAL
// append and the install contribute nested spans.
//
// A commit runs in four steps. The rows are hashed before any lock is
// taken. The commit is planned — validated, matched against the parents,
// its version and record ids predicted — under the dataset lock held
// shared, beside readers. Its WAL record is appended (and fsynced, policy
// permitting) under the writer mutex alone. Only then is it installed, in
// the one exclusive section. Readers of committed versions wait for the
// install at most, and the version becomes visible only once it is logged:
// a failed append installs nothing.
func (d *Dataset) CommitCtx(ctx context.Context, rows []Row, parents []VersionID, msg string) (VersionID, error) {
	s := d.store
	if err := s.writable(); err != nil {
		return 0, err
	}
	hashes := core.HashRows(rows)
	s.ioMu.RLock()
	defer s.ioMu.RUnlock()
	writerWait := d.waitWriter()
	defer d.wmu.Unlock()
	// No exclusive holder can be in the way: they all hold wmu.
	d.mu.RLock()
	var p *core.CommitPlan
	err := d.aliveLocked()
	if err == nil {
		p, err = d.cvd.PlanCommit(ctx, rows, hashes, parents, msg)
	}
	d.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	rec := d.commitRecord(wal.TypeCommit, nil, rows, p)
	err = d.logAndInstall(ctx, "commit.install", writerWait, rec, func(ctx context.Context) error {
		return d.cvd.InstallCommit(ctx, p)
	})
	if err != nil {
		return 0, err
	}
	s.wakeOptimizer()
	return p.Vid, nil
}

// logAndInstall is the back half of a planned commit or merge: append rec
// to the WAL, then install the planned change under the dataset lock held
// exclusively, with the cache invalidation rec calls for, inside a span
// named span. The caller holds ioMu shared and the writer mutex (waited
// for for writerWait) throughout, so no checkpoint can record a watermark
// covering rec before it is installed. A failed append installs nothing; a
// failed install leaves a logged record the in-memory state lacks, which
// installFailed records.
func (d *Dataset) logAndInstall(ctx context.Context, span string, writerWait time.Duration, rec *wal.Record, apply func(context.Context) error) error {
	s := d.store
	if err := s.logMutationCtx(ctx, rec); err != nil {
		return err
	}
	if s.loggedHook != nil {
		s.loggedHook()
	}
	d.lockInstall(writerWait)
	ictx, sp := obs.StartSpan(ctx, span)
	err := apply(ictx)
	s.invalidateCache(rec)
	sp.End()
	d.mu.Unlock()
	if err != nil {
		return s.installFailed(rec, err)
	}
	s.scheduleSave()
	return nil
}

// CommitWithSchema commits rows under a (possibly changed) schema,
// exercising the single-pool schema evolution of Section 3.3, with trace
// propagation as in CommitCtx. Schema evolution changes the dataset before
// the commit can be planned, so a schema commit keeps one exclusive section:
// evolve, commit, invalidate, append.
func (d *Dataset) CommitWithSchema(ctx context.Context, cols []Column, rows []Row, parents []VersionID, msg string) (VersionID, error) {
	if err := d.store.writable(); err != nil {
		return 0, err
	}
	d.store.ioMu.RLock()
	defer d.store.ioMu.RUnlock()
	d.lock()
	defer d.unlock()
	if err := d.aliveLocked(); err != nil {
		return 0, err
	}
	p, err := d.cvd.CommitWithSchema(ctx, cols, rows, parents, msg)
	if err != nil {
		return 0, err
	}
	// A schema change alters how every version materializes (an added
	// column reads as NULL), so everything goes.
	rec := d.commitRecord(wal.TypeCommitSchema, cols, rows, p)
	d.store.invalidateCache(rec)
	if err := d.store.logMutationCtx(ctx, rec); err != nil {
		return p.Vid, err
	}
	d.store.scheduleSave()
	d.store.wakeOptimizer()
	return p.Vid, nil
}

// Checkout materializes one or more versions as rows; with several versions
// records merge in precedence order under the primary key.
func (d *Dataset) Checkout(vids ...VersionID) ([]Row, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.Checkout(vids...)
}

// CheckoutWithTokenCtx is Checkout plus the schema and the dataset's cache
// generation, all observed under one lock acquisition, so they stay
// mutually consistent even while schema-changing commits run concurrently.
// The generation advances on every mutation that could change what this
// dataset's versions materialize to, so (dataset, versions, generation) is a
// sound validator: a client holding rows tagged with the same generation is
// guaranteed they are still current (the HTTP layer turns this into
// ETag-style X-Orpheus-Version headers and 304 responses). When ctx carries
// a trace, the cache lookup, bitmap resolution, and record fetch contribute
// nested spans.
func (d *Dataset) CheckoutWithTokenCtx(ctx context.Context, vids ...VersionID) ([]Column, []Row, uint64, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, nil, 0, err
	}
	rows, err := d.cvd.CheckoutCtx(ctx, vids...)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := d.store.cache.Generation(d.cvd.Name())
	return append([]Column(nil), d.cvd.Columns()...), rows, gen, nil
}

// CacheGeneration returns the dataset's current cache generation (see
// CheckoutWithTokenCtx) under the dataset read lock.
func (d *Dataset) CacheGeneration() uint64 {
	d.rlock()
	defer d.mu.RUnlock()
	return d.store.cache.Generation(d.cvd.Name())
}

// CacheStats snapshots the store's checkout-cache counters.
func (s *Store) CacheStats() CacheStats { return s.cache.Stats() }

// DatasetCacheStats reports one dataset's share of the checkout cache.
func (s *Store) DatasetCacheStats(name string) DatasetCacheStats {
	return s.cache.DatasetStats(name)
}

// FlushCache drops every cached materialization (entries rebuild on demand;
// correctness never depends on flushing).
func (s *Store) FlushCache() { s.cache.Flush() }

// SetCacheBudget resizes the checkout cache's byte budget, evicting down to
// it immediately. A budget <= 0 disables caching.
func (s *Store) SetCacheBudget(budget int64) { s.cache.SetBudget(budget) }

// DiffWithColumns is Diff plus the schema under a single lock acquisition.
func (d *Dataset) DiffWithColumns(a, b VersionID) (cols []Column, onlyA, onlyB []Row, err error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, nil, nil, err
	}
	onlyA, onlyB, err = d.cvd.Diff(a, b)
	if err != nil {
		return nil, nil, nil, err
	}
	return append([]Column(nil), d.cvd.Columns()...), onlyA, onlyB, nil
}

// CheckoutToTable materializes versions into a staging table owned by the
// store's active user.
func (d *Dataset) CheckoutToTable(table string, vids ...VersionID) error {
	s := d.store
	if err := s.writable(); err != nil {
		return err
	}
	user := s.WhoAmI() // before d.mu: lock order is s.mu before dataset locks
	// Exclusive save lock: the staged table and provenance rows must not
	// be observed half-written by concurrent SQL or saves.
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	s.stagingMu.Lock()
	defer s.stagingMu.Unlock()
	if err := d.cvd.CheckoutToTable(table, user, vids...); err != nil {
		return err
	}
	s.scheduleSave()
	return nil
}

// CommitTable commits a staged table back as a new version and removes it
// from the staging area.
func (d *Dataset) CommitTable(table, msg string) (VersionID, error) {
	s := d.store
	if err := s.writable(); err != nil {
		return 0, err
	}
	user := s.WhoAmI() // before d.mu: lock order is s.mu before dataset locks
	// Exclusive save lock: committing drops the staged table out from
	// under any SQL statement that could name it.
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	d.lock()
	defer d.unlock()
	if err := d.aliveLocked(); err != nil {
		return 0, err
	}
	s.stagingMu.Lock()
	defer s.stagingMu.Unlock()
	// Capture the staged rows before the commit consumes the table: the WAL
	// record carries the materialized data, so recovery does not depend on
	// the (checkpoint-durable-only) staging area.
	var staged *wal.Record
	if s.wal != nil {
		t, terr := s.db.MustTable(table)
		if terr == nil {
			var rows []Row
			t.Scan(func(_ engine.RowID, r Row) bool {
				rows = append(rows, r)
				return true
			})
			staged = &wal.Record{
				Type:    wal.TypeCommitTable,
				Dataset: d.cvd.Name(),
				Table:   table,
				User:    user,
				Msg:     msg,
				Cols:    append([]Column(nil), t.Columns()...),
				Rows:    rows,
			}
		}
	}
	v, err := d.cvd.CommitTable(table, user, msg)
	if err != nil {
		return 0, err
	}
	// A staged table may carry a new schema (see CommitWithSchema).
	s.invalidateCache(&wal.Record{Type: wal.TypeCommitTable, Dataset: d.cvd.Name()})
	if staged != nil {
		if info, ierr := d.cvd.Info(v); ierr == nil {
			staged.TimeNanos = info.CommitTime.UnixNano()
			staged.Parents = vidsToInt64(info.Parents)
		}
		staged.Version = int64(v)
		if set, serr := d.cvd.RlistSet(v); serr == nil {
			staged.Members = set
		}
		if err := s.logMutation(staged); err != nil {
			return v, err
		}
	}
	s.scheduleSave()
	s.wakeOptimizer()
	return v, nil
}

// Diff returns the rows only in a and only in b. Membership is resolved as
// bitmap differences over the versions' rlists, so only |result| records are
// fetched from the backing tables.
func (d *Dataset) Diff(a, b VersionID) (onlyA, onlyB []Row, err error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, nil, err
	}
	return d.cvd.Diff(a, b)
}

// MultiVersionCheckout materializes a left-associative chain of record-set
// operations over versions: vids[0] ops[0] vids[1] ... — the programmatic
// face of the SQL `VERSION v1 INTERSECT v2 OF CVD name` scan. With a single
// version and no ops it degenerates to a plain checkout of that version's
// records. Unlike Checkout, results are record-id algebra: no primary-key
// precedence is applied. When ctx carries a trace, bitmap resolution and
// record fetch contribute nested spans.
func (d *Dataset) MultiVersionCheckout(ctx context.Context, vids []VersionID, ops []SetOp) ([]Row, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.MultiVersionCheckout(ctx, vids, ops)
}

// StorageBreakdown reports where the dataset's bytes live: compressed
// membership (rlists/vlists) versus record data.
func (d *Dataset) StorageBreakdown() StorageBreakdown {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.StorageBreakdown()
}

// Ancestors returns all transitive ancestors of v.
func (d *Dataset) Ancestors(v VersionID) ([]VersionID, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.Ancestors(v)
}

// Descendants returns all transitive descendants of v.
func (d *Dataset) Descendants(v VersionID) ([]VersionID, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.Descendants(v)
}

// StorageBytes reports the dataset's model-owned storage.
func (d *Dataset) StorageBytes() int64 {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.StorageBytes()
}

// CVD exposes the underlying core object for advanced use. Access through
// CVD bypasses the dataset lock; do not mix it with concurrent use.
func (d *Dataset) CVD() *core.CVD { return d.cvd }

// SearchVersions returns the versions whose metadata satisfies pred, a
// version-graph shortcut query (Section 2.2).
func (d *Dataset) SearchVersions(pred func(*VersionInfo) bool) ([]VersionID, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	var out []VersionID
	for _, v := range d.cvd.Versions() {
		info, err := d.cvd.Info(v)
		if err != nil {
			return nil, err
		}
		if pred(info) {
			out = append(out, v)
		}
	}
	return out, nil
}

// LastModified returns the most recent commit time across versions.
func (d *Dataset) LastModified() (time.Time, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return time.Time{}, err
	}
	var best time.Time
	for _, v := range d.cvd.Versions() {
		info, err := d.cvd.Info(v)
		if err != nil {
			return time.Time{}, err
		}
		if info.CommitTime.After(best) {
			best = info.CommitTime
		}
	}
	return best, nil
}

// RecencyWeights builds a checkout-frequency map weighting the most recent
// recentFraction of versions hot× more than the rest.
func (d *Dataset) RecencyWeights(recentFraction float64, hot int64) map[VersionID]int64 {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.RecencyWeights(recentFraction, hot)
}
