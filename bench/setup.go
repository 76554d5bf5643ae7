package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/server"
)

// mix is the share of each op class in a client's schedule, in percent.
type mix struct {
	checkout, commit, query, diff, merge int
	// twoVersion makes one checkout in ten ask for two versions.
	twoVersion bool
}

// spec is one workload: the store configuration and the traffic.
type spec struct {
	name    string
	why     string
	backend orpheusdb.BackendKind
	wal     bool
	// pageDiv sets the disk backend's page budget: the store file's size
	// after the bulk load, divided by this.
	pageDiv int64
	// tablesOnly leaves sci out: commit_wal serves only the small tables.
	tablesOnly bool
	// saveDelay is the store's debounce for background saves while the
	// workload runs. The read-only workloads and mixed checkpoint only when
	// told to, so their background work happens at schedule points.
	saveDelay time.Duration
	// optimizer starts the partition optimizer in observe-only mode, which
	// POST /partitioning needs; it never migrates on its own.
	optimizer bool
	window    mix
	// admin is the operator's background work during the window.
	admin []adminPoint
	// blocks run after the window, in the same store and configuration, so
	// that every workload reports every end-to-end metric.
	blocks []block
}

// block is a stretch of traffic of one kind on the sixteen small tables every
// store also holds, driven like the window with every client. It gives the
// named sample classes their metrics where the window has no steady figure
// for them: on sci what a diff or a merge costs depends on the version, on
// how many versions the window added and, on the disk backend, on which
// pages the layout happened to put together, and no run length this
// benchmark can afford averages that out. The tables are all alike, so a
// block measures the op's code path under the workload's backend and WAL
// settings and nothing else.
type block struct {
	mix     mix
	share   float64 // length, as a share of the window's
	classes []string
}

// tableBlocks are the blocks of a workload whose window runs on sci; the
// first also gives the commit classes where the window has no commits.
func tableBlocks(commits bool) []block {
	write := []string{classMerge}
	if commits {
		write = []string{classCommit, classMerge}
	}
	return []block{
		{mix{commit: 60, merge: 40}, 0.2, write},
		{mix{query: 100}, 0.1, []string{classQuery}},
		{mix{diff: 100}, 0.1, []string{classDiff}},
	}
}

const never = 24 * time.Hour

var specs = []*spec{
	{
		name:      "checkout_mem",
		why:       "read-only Zipf checkouts on the memory backend: server encode, cache, core, bitmap and heap scan do all the work, WAL and pager none",
		backend:   orpheusdb.BackendMemory,
		saveDelay: never,
		window:    mix{checkout: 100},
		blocks:    tableBlocks(true),
	},
	{
		name:      "checkout_disk",
		why:       "the same schedule on the disk backend with page budget = file/8: cold requests fault pages through pager and diskv, so the gap to checkout_mem is the price of the disk path",
		backend:   orpheusdb.BackendDisk,
		pageDiv:   8,
		saveDelay: never,
		window:    mix{checkout: 100},
		blocks:    tableBlocks(true),
	},
	{
		name:       "commit_wal",
		why:        "small full-table commits to 16 separate datasets with WAL fsync=always and no reads: WAL append+fsync is the largest share of a commit and there is no dataset lock to wait for",
		backend:    orpheusdb.BackendMemory,
		wal:        true,
		tablesOnly: true,
		saveDelay:  orpheusdb.DefaultSaveDelay,
		window:     mix{commit: 100},
		blocks:     append([]block{{mix{checkout: 100}, 0.3, []string{classHot, classCold}}}, tableBlocks(false)...),
	},
	{
		name:      "mixed",
		why:       "reads beside writes on the disk backend with WAL: every commit invalidates the dataset's cache, takes the dataset lock, and checkpoints and migrations run under traffic",
		backend:   orpheusdb.BackendDisk,
		pageDiv:   1,
		wal:       true,
		saveDelay: never,
		optimizer: true,
		window:    mix{checkout: 65, commit: 15, query: 15, diff: 3, merge: 2, twoVersion: true},
		admin:     []adminPoint{{0.3, opCheckpoint}, {0.6, opRepartition}},
		blocks:    tableBlocks(false),
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {

			return s
		}
	}
	return nil
}

// tableName is the i-th commit_wal dataset.
func tableName(i int) string { return fmt.Sprintf("t%02d", i) }

// workBranch is the i-th work branch of sci.
func workBranch(i int) string { return fmt.Sprintf("w%d", i) }

// dataset is the generated input of one run: the small tables, and sci
// unless the workload is tables only.
type dataset struct {
	sci    *sciPlan
	tables [][]orpheusdb.Row // initial rows of each small table
	// userBytes is what the set-up data counts as user data.
	userBytes int64
}

func generate(sp *spec, seed int64, scale float64) *dataset {
	d := &dataset{}
	g := &rowGen{rng: rand.New(rand.NewSource(seed ^ 0x7ab1e5)), nextKey: 1 << 50}
	for i := 0; i < smallTables; i++ {
		rows := make([]orpheusdb.Row, smallTableRows)
		for j := range rows {
			rows[j] = g.fresh()
		}
		d.tables = append(d.tables, rows)
	}
	d.userBytes = smallTables * smallTableRows * rowUserBytes
	if !sp.tablesOnly {
		d.sci = genSci(seed, scale)
		d.userBytes += d.sci.records * rowUserBytes
	}
	return d
}

// build loads the generated data into an empty store: the bulk load every
// run pays before it can serve.
func build(st *orpheusdb.Store, d *dataset) error {
	for i, rows := range d.tables {
		ds, err := st.Init(tableName(i), sciColumns(), orpheusdb.InitOptions{Model: orpheusdb.PartitionedRlist, PrimaryKey: []string{"k"}})
		if err != nil {
			return err
		}
		if _, err := ds.Commit(rows, nil, "load"); err != nil {
			return err
		}
	}
	if d.sci == nil {
		return nil
	}
	ds, err := st.Init("sci", sciColumns(), orpheusdb.InitOptions{Model: orpheusdb.PartitionedRlist, PrimaryKey: []string{"k"}})
	if err != nil {
		return err
	}
	for i, v := range d.sci.versions {
		var parents []orpheusdb.VersionID
		if v.parent >= 0 {
			parents = []orpheusdb.VersionID{vidOf(v.parent)}
		}
		vid, err := ds.Commit(v.rows, parents, "load")
		if err != nil {
			return err
		}
		if vid != vidOf(i) {
			return fmt.Errorf("set-up commit %d got version %d", i, vid)
		}
	}
	if _, err := ds.Optimize(2); err != nil {
		return err
	}
	for i := 0; i < workBranches; i++ {
		if _, err := ds.CreateBranch(workBranch(i), vidOf(d.sci.mainlineHead)); err != nil {
			return err
		}
	}
	return nil
}

// env is one opened store, served on a loopback listener in this process.
type env struct {
	sp    *spec
	dir   string
	store *orpheusdb.Store
	srv   *server.Server
	hs    *http.Server
	done  chan struct{} // closed when the listener's Serve loop has returned
	url   string

	fileBytes   int64 // store file right after the bulk load
	pageBudget  int64
	cacheBudget int64
}

func storePath(dir string) string { return filepath.Join(dir, "store.odb") }

// openStore opens the store file in dir the way the workload serves it:
// backend, page budget, WAL with fsync=always (which replays whatever the log
// holds beyond the file). Background saves stay off until the caller sets
// the workload's delay, so replay never races a checkpoint.
func openStore(sp *spec, dir string, pageBudget int64) (*orpheusdb.Store, error) {
	st, err := orpheusdb.OpenStoreWithOptions(storePath(dir), orpheusdb.StoreOptions{Backend: sp.backend, PageBudgetBytes: pageBudget})
	if err != nil {
		return nil, err
	}
	st.SetSaveDelay(never)
	if sp.wal {
		if err := st.EnableWAL(orpheusdb.WALConfig{Policy: orpheusdb.FsyncAlways}); err != nil {
			release(st)
			return nil, err
		}
	}
	return st, nil
}

// release drops a store's files and locks without flushing anything: what a
// crash leaves behind is whatever was already on disk.
func release(st *orpheusdb.Store) {
	if o := st.PartitionOptimizer(); o != nil {
		o.Stop()
	}
	st.SetSaveDelay(never)
	_ = st.CloseWAL() // a final fsync of an fsync=always log changes nothing
	if st.DB().Backend() != nil {
		_ = st.DB().CloseBackend() // closes the file; dirty pages are not written
	}
}

// setUp is what setup_s times: bulk load, optimize, close, reopen under the
// workload's budgets, and listen.
func setUp(sp *spec, d *dataset, dir string) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := orpheusdb.OpenStoreWithOptions(storePath(dir), orpheusdb.StoreOptions{Backend: sp.backend})
	if err != nil {
		return nil, err
	}
	st.SetSaveDelay(never)
	if err := build(st, d); err != nil {
		release(st)
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(storePath(dir))
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, dir: dir, fileBytes: fi.Size()}
	if sp.pageDiv > 0 {
		e.pageBudget = fi.Size() / sp.pageDiv
	}
	if e.store, err = openStore(sp, dir, e.pageBudget); err != nil {
		return nil, err
	}
	if err := e.sizeCache(d); err != nil {
		release(e.store)
		return nil, err
	}
	if sp.optimizer {
		if _, err := e.store.StartPartitionOptimizer(orpheusdb.PartitionOptimizerConfig{Mu: orpheusdb.MuDisabled}); err != nil {
			release(e.store)
			return nil, err
		}
	}
	if err := e.serve(); err != nil {
		release(e.store)
		return nil, err
	}
	return e, nil
}

// sizeCache sets the checkout-cache budget to eight materialized head
// versions, measured on the cache's own accounting.
func (e *env) sizeCache(d *dataset) error {
	name, head := tableName(0), orpheusdb.VersionID(1)
	if d.sci != nil {
		name, head = "sci", vidOf(d.sci.mainlineHead)
	}
	ds, err := e.store.Dataset(name)
	if err != nil {
		return err
	}
	e.store.SetCacheBudget(1 << 40)
	e.store.FlushCache()
	if _, err := ds.Checkout(head); err != nil {
		return err
	}
	e.cacheBudget = 8 * e.store.CacheStats().Bytes
	e.store.SetCacheBudget(e.cacheBudget)
	e.store.FlushCache()
	return nil
}

func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.store, nil)
	e.hs = &http.Server{Handler: e.srv}
	e.done = make(chan struct{})
	e.url = "http://" + ln.Addr().String()
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on stopServing
	}()
	return nil
}

func (e *env) stopServing() {
	if e.hs != nil {
		_ = e.hs.Close()
		<-e.done
		e.hs = nil
	}
}

// crash stops serving and abandons the store without Close or checkpoint.
func (e *env) crash() {
	e.stopServing()
	release(e.store)
}

// image copies what is on disk now — log first, then the store file, so a
// checkpoint finishing mid-copy leaves a file at least as new as the log —
// into dst. Without an injectable file layer this byte copy of an unclosed
// store stands in for a crash; fsync=always makes the two equivalent for
// acknowledged writes.
func (e *env) image(dst string) (bytes int64, err error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	walDir := storePath(e.dir) + ".wal"
	entries, err := os.ReadDir(walDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	if len(entries) > 0 {
		if err := os.MkdirAll(storePath(dst)+".wal", 0o755); err != nil {
			return 0, err
		}
	}
	for _, ent := range entries {
		n, err := copyFile(filepath.Join(walDir, ent.Name()), filepath.Join(storePath(dst)+".wal", ent.Name()))
		if err != nil {
			return 0, err
		}
		bytes += n
	}
	n, err := copyFile(storePath(e.dir), storePath(dst))
	return bytes + n, err
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}
