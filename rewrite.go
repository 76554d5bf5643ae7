package orpheusdb

import (
	"context"
	"sort"
	"strconv"
	"time"

	"orpheusdb/internal/core"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/sql"
	"orpheusdb/internal/vgraph"
)

// The query translator (Section 2.3): SQL statements may reference
// `VERSION <v> OF CVD <name>` (one version as a relation) or `CVD <name>`
// (every version, with a leading vid column). Run resolves each such
// reference through a CVDSource that serves the materialized record set
// straight from the checkout cache (internal/cache) when warm — no transient
// tables are created, and the underlying engine stays completely unaware of
// versioning.

// stmtWrites reports whether a statement mutates named engine tables
// (INSERT/UPDATE/DELETE/DDL, and SELECT ... INTO, which materializes a new
// table). Such statements run under the exclusive save lock so they cannot
// race other queries or commits touching the same tables, and their results
// are scheduled for persistence; plain SELECTs run under the shared lock.
func stmtWrites(st sql.Stmt) bool {
	if sel, ok := st.(*sql.SelectStmt); ok {
		return sel.Into != ""
	}
	return true
}

// lockForStmts acquires the save lock in the mode the statements need and
// returns the matching unlock.
func (s *Store) lockForStmts(stmts ...sql.Stmt) func() {
	for _, st := range stmts {
		if stmtWrites(st) {
			s.ioMu.Lock()
			return s.ioMu.Unlock
		}
	}
	s.ioMu.RLock()
	return s.ioMu.RUnlock
}

// lockAllDatasets takes every dataset's lock (in name order, so concurrent
// callers cannot deadlock) and returns the matching unlock. It backs raw SQL
// that names tables directly: such a statement may touch any dataset's
// backing tables, which are otherwise guarded only by per-dataset locks.
// Caller holds ioMu, so the catalog is stable.
func (s *Store) lockAllDatasets(write bool) func() {
	names := core.ListCVDs(s.db)
	sort.Strings(names)
	locked := make([]*Dataset, 0, len(names))
	for _, n := range names {
		d, err := s.dataset(n)
		if err != nil {
			continue
		}
		if write {
			d.lock()
		} else {
			d.rlock()
		}
		locked = append(locked, d)
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			if write {
				locked[i].unlock()
			} else {
				locked[i].mu.RUnlock()
			}
		}
	}
}

// Run executes one SQL statement, resolving OrpheusDB version references.
// Run is safe for concurrent use. VERSION ... OF CVD references resolve
// under the referenced datasets' read locks into in-memory relations served
// by the checkout cache, so versioned queries on dataset A run alongside
// commits on dataset B. Statements naming plain tables additionally take
// every dataset's lock (shared for SELECT, exclusive for DML, which also
// holds the save lock exclusively), since a raw name may resolve to any
// dataset's backing tables. After a write statement the checkout cache is
// flushed inside the same locked window: raw DML may have rewritten any
// dataset's backing tables out from under the versioning layer.
func (s *Store) Run(src string) (*Result, error) {
	return s.RunCtx(context.Background(), src)
}

// RunCtx is Run with trace propagation and latency observation: the parse and
// execution phases contribute "sql.parse" / "sql.execute" spans when ctx
// carries a trace, and each lands in its histogram.
func (s *Store) RunCtx(ctx context.Context, src string) (*Result, error) {
	stmt, err := s.parseTimed(ctx, src)
	if err != nil {
		return nil, err
	}
	return s.runParsed(ctx, stmt)
}

// parseTimed wraps sql.Parse with the sql.parse span and histogram.
func (s *Store) parseTimed(ctx context.Context, src string) (sql.Stmt, error) {
	_, span := obs.StartSpan(ctx, "sql.parse")
	start := time.Now()
	stmt, err := sql.Parse(src)
	s.obs.sqlParseSeconds.ObserveDuration(time.Since(start))
	span.End()
	return stmt, err
}

// runParsed executes one parsed statement with the locking its kind needs.
// Branch and merge statements dispatch to the store's branch layer (which
// takes its own locks and WAL-logs); everything else runs through the SQL
// executor under the save lock.
func (s *Store) runParsed(ctx context.Context, stmt sql.Stmt) (*Result, error) {
	if res, handled, err := s.runBranchStmt(ctx, stmt); handled {
		return res, err
	}
	ctx, span := obs.StartSpan(ctx, "sql.execute")
	start := time.Now()
	defer func() {
		s.obs.sqlExecSeconds.ObserveDuration(time.Since(start))
		span.End()
	}()
	writes := stmtWrites(stmt)
	if writes {
		if err := s.writable(); err != nil {
			return nil, err
		}
	}
	defer s.lockForStmts(stmt)()
	plain := stmtReferencesPlainTables(stmt)
	if writes || plain {
		defer s.lockAllDatasets(writes)()
	}
	res, err := sql.RunWith(s.db, stmt, &cvdSource{ctx: ctx, s: s, locked: writes || plain})
	if writes {
		// Still inside the exclusive window: invalidate before any reader
		// can observe post-DML state through a stale entry. Even a failed
		// statement may have applied partial mutations (e.g. a multi-row
		// INSERT failing midway), so flush and persist either way.
		s.cache.Flush()
		s.scheduleSave()
	}
	return res, err
}

// RunScript executes a semicolon-separated script, returning the last result.
// A script containing branch or merge statements runs statement by statement
// (each under its own locking), since those statements acquire the store's
// locks themselves; pure SQL scripts keep the single save-lock window. The
// script-level parse contributes one "sql.parse" span, and each executed
// statement its own "sql.execute" span (scripts containing branch statements
// span per statement through runParsed instead).
func (s *Store) RunScript(ctx context.Context, src string) (*Result, error) {
	_, pspan := obs.StartSpan(ctx, "sql.parse")
	pstart := time.Now()
	stmts, err := sql.ParseScript(src)
	s.obs.sqlParseSeconds.ObserveDuration(time.Since(pstart))
	pspan.End()
	if err != nil {
		return nil, err
	}
	if scriptHasBranchStmt(stmts) {
		res := &Result{}
		for _, stmt := range stmts {
			if res, err = s.runParsed(ctx, stmt); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	ctx, span := obs.StartSpan(ctx, "sql.execute")
	start := time.Now()
	defer func() {
		s.obs.sqlExecSeconds.ObserveDuration(time.Since(start))
		span.End()
	}()
	defer s.lockForStmts(stmts...)()
	res := &Result{}
	wrote := false
	// Writes applied by earlier statements must persist even when a later
	// statement fails (or the failing statement itself applied partially).
	defer func() {
		if wrote {
			s.scheduleSave()
		}
	}()
	for _, stmt := range stmts {
		w := stmtWrites(stmt)
		if w {
			if err := s.writable(); err != nil {
				return nil, err
			}
		}
		wrote = wrote || w
		plain := stmtReferencesPlainTables(stmt)
		source := &cvdSource{ctx: ctx, s: s, locked: w || plain}
		if w || plain {
			unlock := s.lockAllDatasets(w)
			res, err = sql.RunWith(s.db, stmt, source)
			if w {
				s.cache.Flush() // before unlock: see Run
			}
			unlock()
		} else {
			res, err = sql.RunWith(s.db, stmt, source)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scriptHasBranchStmt reports whether any statement is a branch/merge op.
func scriptHasBranchStmt(stmts []sql.Stmt) bool {
	for _, st := range stmts {
		switch st.(type) {
		case *sql.CreateBranchStmt, *sql.DropBranchStmt, *sql.MergeStmt:
			return true
		}
	}
	return false
}

// refString renders a statement's version-or-branch reference pair as the
// string form Dataset.Merge and friends resolve.
func refString(vid int64, branch string) string {
	if branch != "" {
		return branch
	}
	return strconv.FormatInt(vid, 10)
}

// runBranchStmt dispatches the ORPHEUSDB branch/merge statements to the
// store's branch layer. handled is false for every other statement.
func (s *Store) runBranchStmt(ctx context.Context, stmt sql.Stmt) (*Result, bool, error) {
	switch st := stmt.(type) {
	case *sql.CreateBranchStmt:
		d, err := s.Dataset(st.CVD)
		if err != nil {
			return nil, true, err
		}
		// Resolve an explicit anchor through ResolveRef so a nonsense
		// `FROM VERSION 0` is rejected rather than read as "latest".
		at := VersionID(0)
		if st.FromBranch != "" || st.From >= 0 {
			if at, err = d.ResolveRef(refString(st.From, st.FromBranch)); err != nil {
				return nil, true, err
			}
		}
		b, err := d.CreateBranch(st.Branch, at)
		if err != nil {
			return nil, true, err
		}
		return &Result{
			Cols: []string{"branch", "head"},
			Rows: []Row{{String(b.Name), Int(int64(b.Head))}},
		}, true, nil
	case *sql.DropBranchStmt:
		d, err := s.Dataset(st.CVD)
		if err != nil {
			return nil, true, err
		}
		if err := d.DeleteBranch(st.Branch); err != nil {
			return nil, true, err
		}
		return &Result{Affected: 1}, true, nil
	case *sql.MergeStmt:
		d, err := s.Dataset(st.CVD)
		if err != nil {
			return nil, true, err
		}
		policy, err := ParseMergePolicy(st.Policy)
		if err != nil {
			return nil, true, err
		}
		res, err := d.MergeCtx(ctx, refString(st.Ours, st.OursBranch), refString(st.Theirs, st.TheirsBranch), policy, "")
		if err != nil {
			return nil, true, err
		}
		return &Result{
			Cols: []string{"version", "base", "conflicts"},
			Rows: []Row{{Int(int64(res.Version)), Int(int64(res.Base)), Int(int64(len(res.Conflicts)))}},
		}, true, nil
	}
	return nil, false, nil
}

// cvdSource resolves `VERSION ... OF CVD` references for the SQL executor,
// serving materialized record sets from the store's checkout cache. locked
// marks statements for which Run already holds every dataset's lock (plain
// tables or DML); taking the per-dataset read lock again would deadlock
// against the held write lock, and is redundant under the held read lock.
type cvdSource struct {
	// ctx carries the statement's trace (if any) into the checkout layer, so
	// a versioned query's cache lookup, bitmap algebra, and record fetch
	// appear as spans nested under sql.execute. The executor's source
	// interface has no ctx parameter, so the source pins it per statement.
	ctx    context.Context
	s      *Store
	locked bool
}

// context returns the pinned statement context, tolerating zero-value sources.
func (src *cvdSource) context() context.Context {
	if src.ctx != nil {
		return src.ctx
	}
	return context.Background()
}

func (src *cvdSource) MaterializeVersionRef(ref *sql.TableRef) ([]engine.Column, []engine.Row, error) {
	d, err := src.s.dataset(ref.CVD) // caller (Run) already holds ioMu
	if err != nil {
		return nil, nil, err
	}
	if !src.locked {
		d.rlock()
		defer d.mu.RUnlock()
	}
	if err := d.aliveLocked(); err != nil {
		return nil, nil, err
	}
	version := ref.Version
	if ref.Branch != "" {
		// A branch name in the version slot resolves to the branch head
		// under the same lock acquisition as the materialization.
		v, err := d.cvd.ResolveRef(ref.Branch)
		if err != nil {
			return nil, nil, err
		}
		version = int64(v)
	}
	switch {
	case version >= 0 && len(ref.ExtraVersions) > 0:
		// Multi-version scan: membership is bitmap algebra over the
		// versions' rlists; only the result records touch the data tables,
		// and the whole materialization is cached under the chain's
		// canonical key.
		vids := make([]vgraph.VersionID, 0, len(ref.ExtraVersions)+1)
		vids = append(vids, vgraph.VersionID(version))
		for _, v := range ref.ExtraVersions {
			vids = append(vids, vgraph.VersionID(v))
		}
		ops := make([]core.SetOp, len(ref.SetOps))
		for i, kw := range ref.SetOps {
			op, err := core.ParseSetOp(kw)
			if err != nil {
				return nil, nil, err
			}
			ops[i] = op
		}
		rows, err := d.cvd.MultiVersionCheckout(src.context(), vids, ops)
		if err != nil {
			return nil, nil, err
		}
		return append([]engine.Column(nil), d.cvd.Columns()...), rows, nil
	case version >= 0:
		rows, err := d.cvd.CheckoutCtx(src.context(), vgraph.VersionID(version))
		if err != nil {
			return nil, nil, err
		}
		return append([]engine.Column(nil), d.cvd.Columns()...), rows, nil
	default:
		// All-versions view: vid + data attributes, one row per
		// (version, record) pair — the "table with versioned records" of
		// Figure 1a, generated on the fly.
		return d.cvd.AllVersionsCheckout(src.context())
	}
}

// stmtReferencesPlainTables walks the statement and reports whether it names
// any plain (non-versioned) table — such statements take every dataset's
// lock, since a raw name may resolve to any dataset's backing tables.
func stmtReferencesPlainTables(stmt sql.Stmt) bool {
	plain := false
	var walkSelect func(sel *sql.SelectStmt) error

	var walkFrom func(f sql.FromItem) error
	walkFrom = func(f sql.FromItem) error {
		switch t := f.(type) {
		case *sql.TableRef:
			if t.CVD == "" {
				plain = true
			}
		case *sql.SubqueryRef:
			return walkSelect(t.Select)
		case *sql.JoinRef:
			if err := walkFrom(t.Left); err != nil {
				return err
			}
			if err := walkFrom(t.Right); err != nil {
				return err
			}
			return walkExpr(t.On, walkSelect)
		}
		return nil
	}

	walkSelect = func(sel *sql.SelectStmt) error {
		if sel == nil {
			return nil
		}
		for _, f := range sel.From {
			if err := walkFrom(f); err != nil {
				return err
			}
		}
		for _, item := range sel.Items {
			if err := walkExpr(item.Expr, walkSelect); err != nil {
				return err
			}
		}
		for _, e := range append([]sql.Expr{sel.Where, sel.Having}, sel.GroupBy...) {
			if err := walkExpr(e, walkSelect); err != nil {
				return err
			}
		}
		for _, o := range sel.OrderBy {
			if err := walkExpr(o.Expr, walkSelect); err != nil {
				return err
			}
		}
		return nil
	}

	switch t := stmt.(type) {
	case *sql.SelectStmt:
		_ = walkSelect(t)
		if t.Into != "" {
			plain = true // materializes into a named table
		}
	default:
		// INSERT/UPDATE/DELETE/DDL target a named table directly; no need
		// to walk further, the answer cannot change.
		plain = true
	}
	return plain
}

// walkExpr visits subqueries inside an expression tree.
func walkExpr(e sql.Expr, visit func(*sql.SelectStmt) error) error {
	switch t := e.(type) {
	case nil:
		return nil
	case *sql.BinaryExpr:
		if err := walkExpr(t.Left, visit); err != nil {
			return err
		}
		return walkExpr(t.Right, visit)
	case *sql.UnaryExpr:
		return walkExpr(t.X, visit)
	case *sql.IsNullExpr:
		return walkExpr(t.X, visit)
	case *sql.BetweenExpr:
		if err := walkExpr(t.X, visit); err != nil {
			return err
		}
		if err := walkExpr(t.Lo, visit); err != nil {
			return err
		}
		return walkExpr(t.Hi, visit)
	case *sql.InExpr:
		if err := walkExpr(t.X, visit); err != nil {
			return err
		}
		for _, l := range t.List {
			if err := walkExpr(l, visit); err != nil {
				return err
			}
		}
		if t.Select != nil {
			return visit(t.Select)
		}
	case *sql.ExistsExpr:
		return visit(t.Select)
	case *sql.SubqueryExpr:
		return visit(t.Select)
	case *sql.ArrayExpr:
		for _, el := range t.Elems {
			if err := walkExpr(el, visit); err != nil {
				return err
			}
		}
		if t.Select != nil {
			return visit(t.Select)
		}
	case *sql.IndexExpr:
		if err := walkExpr(t.X, visit); err != nil {
			return err
		}
		return walkExpr(t.Index, visit)
	case *sql.FuncExpr:
		for _, a := range t.Args {
			if err := walkExpr(a, visit); err != nil {
				return err
			}
		}
	case *sql.CaseExpr:
		for _, w := range t.Whens {
			if err := walkExpr(w.Cond, visit); err != nil {
				return err
			}
			if err := walkExpr(w.Result, visit); err != nil {
				return err
			}
		}
		return walkExpr(t.Else, visit)
	}
	return nil
}
