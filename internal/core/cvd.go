package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/cache"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/vgraph"
)

// CVD is a collaborative versioned dataset: one relation plus many versions
// of it, stored in the backing database as partitioned split-by-rlist
// (Section 4), with version metadata, record identity, and schema history
// managed by the middleware.
type CVD struct {
	db    *engine.DB
	name  string
	model *partitionedRlist
	// pk names the relation's primary-key attributes (may be empty). The
	// key holds within any single version, not across versions.
	pk []string
	// schema is the current attribute-id list (indexes into the attribute
	// table); cols caches the corresponding engine columns.
	schema []int64
	cols   []engine.Column

	vm *versionManager
	rm *recordManager
	am *attrManager
	bm *branchManager

	// cache, when set (SetCache), is consulted by Checkout,
	// MultiVersionCheckout, and AllVersionsCheckout before any bitmap
	// resolution or record fetch. The CVD only reads it: whoever attaches
	// the cache owns invalidation (see SetCache).
	cache *cache.Cache

	// metrics, when set (SetMetrics), receives checkout and commit latency
	// observations; individual histograms may be nil.
	metrics *Metrics

	// heat, when set (SetHeat), receives per-version access credits from the
	// checkout, commit, and merge paths (nil-safe, like metrics).
	heat *Heat

	// Clock supplies commit timestamps; replaceable for deterministic
	// tests.
	Clock func() time.Time
}

// catalogTable is the global registry of CVDs in a database.
const catalogTable = "__orpheus_cvds"

// ensureCatalog creates the CVD registry table if missing.
func ensureCatalog(db *engine.DB) (*engine.Table, error) {
	if t := db.Table(catalogTable); t != nil {
		return t, nil
	}
	return db.CreateTable(catalogTable, []engine.Column{
		{Name: "name", Type: engine.KindString},
		{Name: "model", Type: engine.KindString},
		{Name: "pk", Type: engine.KindString},
	})
}

// catalogRow is a CVD's catalog entry: its name, its data model and its
// comma-separated primary key.
func catalogRow(name string, model ModelKind, pk []string) engine.Row {
	return engine.Row{
		engine.StringValue(name),
		engine.StringValue(string(model)),
		engine.StringValue(strings.Join(pk, ",")),
	}
}

// ListCVDs names the CVDs registered in db.
func ListCVDs(db *engine.DB) []string {
	t := db.Table(catalogTable)
	if t == nil {
		return nil
	}
	var names []string
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		names = append(names, row[0].S)
		return true
	})
	sort.Strings(names)
	return names
}

// InitOptions configures CVD creation.
type InitOptions struct {
	// Model may be empty, PartitionedRlistModel, or the legacy
	// "split-by-rlist" (its one-partition case, which a new CVD starts as
	// anyway); any other model is an ErrUnservedModel error.
	Model ModelKind
	// PrimaryKey names the relation's key attributes.
	PrimaryKey []string
}

// Init creates a new CVD with the given data attributes.
func Init(db *engine.DB, name string, cols []engine.Column, opts InitOptions) (*CVD, error) {
	if err := checkServed(name, opts.Model); err != nil {
		return nil, err
	}
	cat, err := ensureCatalog(db)
	if err != nil {
		return nil, err
	}
	for _, existing := range ListCVDs(db) {
		if existing == name {
			return nil, fmt.Errorf("core: CVD %q already exists", name)
		}
	}
	for _, k := range opts.PrimaryKey {
		found := false
		for _, c := range cols {
			if c.Name == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: CVD %q: primary key column %q not in schema", name, k)
		}
	}
	c := &CVD{
		db:    db,
		name:  name,
		model: &partitionedRlist{db: db, cvd: name},
		pk:    append([]string(nil), opts.PrimaryKey...),
		vm:    newVersionManager(db, name),
		rm:    newRecordManager(db, name),
		am:    newAttrManager(db, name),
		bm:    newBranchManager(db, name),
		Clock: time.Now,
	}
	if err := c.vm.init(); err != nil {
		return nil, err
	}
	if err := c.rm.init(); err != nil {
		return nil, err
	}
	if err := c.am.init(); err != nil {
		return nil, err
	}
	if err := c.bm.init(); err != nil {
		return nil, err
	}
	for _, col := range cols {
		id, err := c.am.add(col.Name, col.Type)
		if err != nil {
			return nil, err
		}
		c.schema = append(c.schema, id)
		c.cols = append(c.cols, col)
	}
	if err := c.model.Init(cols); err != nil {
		return nil, err
	}
	if _, err := cat.Insert(catalogRow(name, PartitionedRlistModel, opts.PrimaryKey)); err != nil {
		return nil, err
	}
	return c, nil
}

// Open loads an existing CVD from the database (e.g. after the CLI reloads a
// snapshot).
func Open(db *engine.DB, name string) (*CVD, error) {
	cat := db.Table(catalogTable)
	if cat == nil {
		return nil, fmt.Errorf("core: no CVDs in database")
	}
	var modelKind, pkList string
	found := false
	cat.Scan(func(_ engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			modelKind, pkList = row[1].S, row[2].S
			found = true
			return false
		}
		return true
	})
	if !found {
		return nil, fmt.Errorf("core: no CVD %q", name)
	}
	if ModelKind(modelKind) != PartitionedRlistModel {
		return nil, unservedModel(name, modelKind)
	}
	c := &CVD{
		db:    db,
		name:  name,
		model: &partitionedRlist{db: db, cvd: name},
		vm:    newVersionManager(db, name),
		rm:    newRecordManager(db, name),
		am:    newAttrManager(db, name),
		bm:    newBranchManager(db, name),
		Clock: time.Now,
	}
	if pkList != "" {
		start := 0
		for i := 0; i <= len(pkList); i++ {
			if i == len(pkList) || pkList[i] == ',' {
				c.pk = append(c.pk, pkList[start:i])
				start = i + 1
			}
		}
	}
	if err := c.vm.load(); err != nil {
		return nil, err
	}
	if err := c.rm.load(); err != nil {
		return nil, err
	}
	if err := c.am.load(); err != nil {
		return nil, err
	}
	if err := c.bm.load(); err != nil {
		return nil, err
	}
	// The physical pool is persisted once a schema change happens; static-
	// schema CVDs reconstruct it from the attribute table (whose entries
	// are then exactly the initial columns, in order).
	loaded, err := c.loadSchema()
	if err != nil {
		return nil, err
	}
	if !loaded {
		for id := int64(1); id < c.am.nextID; id++ {
			a, ok := c.am.get(id)
			if !ok {
				continue
			}
			c.schema = append(c.schema, id)
			c.cols = append(c.cols, engine.Column{Name: a.Name, Type: a.Type})
		}
	}
	if err := c.model.reload(c.cols); err != nil {
		return nil, err
	}
	return c, nil
}

// Name returns the CVD name.
func (c *CVD) Name() string { return c.name }

// Columns returns the CVD's current data attributes.
func (c *CVD) Columns() []engine.Column { return c.cols }

// PrimaryKey returns the relation's key attribute names.
func (c *CVD) PrimaryKey() []string { return c.pk }

// NumVersions returns the number of committed versions.
func (c *CVD) NumVersions() int { return len(c.vm.order) }

// Versions lists version ids in commit order.
func (c *CVD) Versions() []vgraph.VersionID { return c.vm.order }

// LatestVersion returns the most recently committed version id (0 if none).
func (c *CVD) LatestVersion() vgraph.VersionID {
	if len(c.vm.order) == 0 {
		return 0
	}
	return c.vm.order[len(c.vm.order)-1]
}

// Info returns a version's metadata.
func (c *CVD) Info(v vgraph.VersionID) (*VersionInfo, error) { return c.vm.info(v) }

// Rlist returns the record ids of a version as a fresh slice.
func (c *CVD) Rlist(v vgraph.VersionID) ([]vgraph.RecordID, error) { return c.vm.rlist(v) }

// RlistSet returns the version's membership bitmap. The bitmap is shared and
// must not be mutated.
func (c *CVD) RlistSet(v vgraph.VersionID) (*bitmap.Bitmap, error) { return c.vm.rlistSet(v) }

// VersionGraph builds the CVD's version graph.
func (c *CVD) VersionGraph() (*vgraph.Graph, error) { return c.vm.graph() }

// Bipartite builds the CVD's version-record bipartite graph.
func (c *CVD) Bipartite() *vgraph.Bipartite { return c.vm.bipartite() }

// Ancestors returns all transitive ancestors of v.
func (c *CVD) Ancestors(v vgraph.VersionID) ([]vgraph.VersionID, error) {
	g, err := c.vm.graph()
	if err != nil {
		return nil, err
	}
	if !g.Has(v) {
		return nil, fmt.Errorf("core: %s: no version %d", c.name, v)
	}
	return g.Ancestors(v), nil
}

// Descendants returns all transitive descendants of v.
func (c *CVD) Descendants(v vgraph.VersionID) ([]vgraph.VersionID, error) {
	g, err := c.vm.graph()
	if err != nil {
		return nil, err
	}
	if !g.Has(v) {
		return nil, fmt.Errorf("core: %s: no version %d", c.name, v)
	}
	return g.Descendants(v), nil
}

// StorageBytes reports the model-owned storage (Figure 3a's metric).
func (c *CVD) StorageBytes() int64 { return c.model.StorageBytes() }

// StorageBreakdown splits the model-owned storage into membership bytes
// (the compressed rlist bitmaps, their tables and the version→partition
// map) and data bytes, plus the middleware's own rlist table.
type StorageBreakdown struct {
	TotalBytes      int64 `json:"totalBytes"`
	DataBytes       int64 `json:"dataBytes"`
	MembershipBytes int64 `json:"membershipBytes"`
	// SystemMembershipBytes is the middleware rlist table, reported
	// separately from the model's own membership storage.
	SystemMembershipBytes int64 `json:"systemMembershipBytes"`
}

// StorageBreakdown reports where the CVD's bytes live.
func (c *CVD) StorageBreakdown() StorageBreakdown {
	out := StorageBreakdown{
		TotalBytes:      c.model.StorageBytes(),
		MembershipBytes: c.model.MembershipBytes(),
	}
	out.DataBytes = out.TotalBytes - out.MembershipBytes
	if t := c.db.Table(c.vm.rlistsName()); t != nil {
		out.SystemMembershipBytes = t.SizeBytes()
	}
	return out
}

// pkPositions resolves the primary-key attribute positions in the current
// schema.
func (c *CVD) pkPositions() []int {
	pos := make([]int, 0, len(c.pk))
	for _, k := range c.pk {
		for i, col := range c.cols {
			if col.Name == k {
				pos = append(pos, i)
				break
			}
		}
	}
	return pos
}

// Commit adds a new version built from rows (data attributes only, matching
// the current schema), derived from the given parents. Per the
// no-cross-version-diff rule, rows are matched only against the parents'
// records: unchanged rows keep their rid, anything else becomes a new
// record. Returns the new version id. The phases — record hash matching
// against the parents, the model write, version metadata — each contribute
// a span when ctx carries a trace. It is PlanCommit and InstallCommit back
// to back.
func (c *CVD) Commit(ctx context.Context, rows []engine.Row, parents []vgraph.VersionID, msg string) (vgraph.VersionID, error) {
	p, err := c.PlanCommit(ctx, rows, nil, parents, msg)
	if err != nil {
		return 0, err
	}
	if err := c.InstallCommit(ctx, p); err != nil {
		return 0, err
	}
	return p.Vid, nil
}

// CommitPlan is a commit worked out against committed state without
// changing any of it: the rows matched against the parents' records, the
// version id and fresh record ids the install will allocate, and the
// version's membership bitmap. A store plans under its dataset's shared
// lock, logs the plan, and only then installs it, so a version becomes
// visible only once its record is logged.
type CommitPlan struct {
	Vid        vgraph.VersionID
	Parents    []vgraph.VersionID
	Message    string
	CommitTime time.Time
	// Members is the version's rlist, built once here and shared by the
	// WAL record, the model and the metadata mirror. Never mutate it.
	Members *bitmap.Bitmap

	checkoutTime time.Time
	attributes   []int64 // the version's visible schema (attribute ids)
	all, fresh   []Record
	freshHashes  []RecordHash
	planned      time.Duration
}

// PlanCommit validates rows (width, primary key), matches them against the
// parents' records by content hash and predicts the version id and the
// fresh record ids. It only reads the CVD, so it may run beside checkouts;
// nothing else may mutate the CVD until the plan is installed. hashes, when
// non-nil, are HashRows(rows) computed by the caller before it took any
// lock.
func (c *CVD) PlanCommit(ctx context.Context, rows []engine.Row, hashes []RecordHash, parents []vgraph.VersionID, msg string) (*CommitPlan, error) {
	start := time.Now()
	for _, p := range parents {
		if _, err := c.vm.info(p); err != nil {
			return nil, err
		}
	}
	for i, r := range rows {
		if len(r) != len(c.cols) {
			return nil, fmt.Errorf("core: %s: commit row %d has %d values, want %d", c.name, i, len(r), len(c.cols))
		}
	}
	if hashes == nil {
		hashes = HashRows(rows)
	} else if len(hashes) != len(rows) {
		return nil, fmt.Errorf("core: %s: %d hashes for %d commit rows", c.name, len(hashes), len(rows))
	}
	// Primary-key constraint within the committed version.
	if pos := c.pkPositions(); len(pos) > 0 {
		seen := make(map[string]bool, len(rows))
		for i, r := range rows {
			vals := make([]engine.Value, len(pos))
			for j, p := range pos {
				vals[j] = r[p]
			}
			k := engine.EncodeKey(vals...)
			if seen[k] {
				return nil, fmt.Errorf("core: %s: commit row %d violates primary key", c.name, i)
			}
			seen[k] = true
		}
	}

	// Match rows against parent records by content hash. The candidate set
	// is the bitmap union of the parents' rlists (duplicates across parents
	// collapse for free).
	_, matchSpan := obs.StartSpan(ctx, "commit.match")
	parentSet := bitmap.New()
	for _, p := range parents {
		set, err := c.vm.rlistSet(p)
		if err != nil {
			return nil, err
		}
		parentSet.OrInPlace(set)
	}
	parentRids := make([]vgraph.RecordID, 0, parentSet.Cardinality())
	parentSet.Iterate(func(r int64) bool {
		parentRids = append(parentRids, vgraph.RecordID(r))
		return true
	})
	parentIndex := c.rm.hashIndex(parentRids)

	p := &CommitPlan{
		Vid:        c.vm.nextV,
		Parents:    append([]vgraph.VersionID(nil), parents...),
		Message:    msg,
		attributes: append([]int64(nil), c.schema...),
		all:        make([]Record, 0, len(rows)),
	}
	nextRid := c.rm.nextR
	usedRid := make(map[vgraph.RecordID]bool, len(rows))
	for i, r := range rows {
		h := hashes[i]
		if rid, ok := parentIndex[h]; ok && !usedRid[rid] {
			usedRid[rid] = true
			p.all = append(p.all, Record{RID: rid, Data: r})
			continue
		}
		rec := Record{RID: nextRid, Data: r}
		nextRid++
		p.all = append(p.all, rec)
		p.fresh = append(p.fresh, rec)
		p.freshHashes = append(p.freshHashes, h)
	}
	p.Members = bitmap.FromSlice(ridsOf(p.all))
	matchSpan.SetAttr("rows", strconv.Itoa(len(p.all)))
	matchSpan.SetAttr("fresh", strconv.Itoa(len(p.fresh)))
	matchSpan.End()
	p.checkoutTime, p.CommitTime = c.Clock(), c.Clock()
	p.planned = time.Since(start)
	return p, nil
}

// InstallCommit makes a planned commit visible: the fresh records' hashes,
// the model write and the version metadata. It first checks that the
// plan's version id and fresh record ids are still the next ones to
// allocate; a plan installed out of turn is refused, not renumbered.
func (c *CVD) InstallCommit(ctx context.Context, p *CommitPlan) error {
	start := time.Now()
	if err := c.checkTurn(p.Vid, p.fresh); err != nil {
		return err
	}
	if err := c.rm.alloc(p.freshHashes); err != nil {
		return err
	}
	vid := c.vm.allocVersion()
	_, modelSpan := obs.StartSpan(ctx, "commit.model")
	err := c.model.Commit(vid, p.Parents, p.all, p.Members)
	modelSpan.End()
	if err != nil {
		return err
	}
	info := &VersionInfo{
		ID:           vid,
		Parents:      p.Parents,
		CheckoutTime: p.checkoutTime,
		CommitTime:   p.CommitTime,
		Message:      p.Message,
		Attributes:   p.attributes,
		NumRecords:   len(p.all),
	}
	_, metaSpan := obs.StartSpan(ctx, "commit.meta")
	err = c.vm.add(info, p.Members)
	metaSpan.End()
	if err != nil {
		return err
	}
	if c.metrics != nil {
		c.metrics.Commit.ObserveDuration(p.planned + time.Since(start))
	}
	c.heat.RecordCommit(p.Parents)
	return nil
}

// checkTurn reports whether vid and the fresh records' ids are the next
// version and record ids to allocate.
func (c *CVD) checkTurn(vid vgraph.VersionID, fresh []Record) error {
	if vid != c.vm.nextV {
		return fmt.Errorf("core: %s: plan for version %d installed when the next version is %d", c.name, vid, c.vm.nextV)
	}
	if len(fresh) > 0 && fresh[0].RID != c.rm.nextR {
		return fmt.Errorf("core: %s: plan allocates records from %d when the next record is %d", c.name, fresh[0].RID, c.rm.nextR)
	}
	return nil
}

// SetCache attaches the checkout cache consulted by Checkout,
// MultiVersionCheckout, and AllVersionsCheckout. Call it before the CVD is
// shared. Entries are keyed by immutable version sets, so the caller owns
// invalidation and does it inside each mutation's critical section: a
// commit or merge drops only the untagged all-versions entry, a migration
// only the entries of the versions it moved, and only a schema change, a
// drop or re-init, or a flush drops everything and moves the generation.
func (c *CVD) SetCache(cc *cache.Cache) { c.cache = cc }

// cacheVids converts version ids to the cache key's int64 form.
func cacheVids(vids []vgraph.VersionID) []int64 {
	out := make([]int64, len(vids))
	for i, v := range vids {
		out[i] = int64(v)
	}
	return out
}

// cachedRows looks key up in the checkout cache (computing and caching on a
// miss) and returns the rows behind a fresh top-level slice, so callers may
// append to or reorder the result without aliasing the cached copy. The rows
// themselves stay shared and immutable, exactly like rows scanned straight
// out of the engine. The returned hit flag reports whether this call served
// from cache (false whenever the compute closure ran, even piggybacked on
// another caller's in-flight computation via singleflight). The lookup
// contributes a "checkout.cache" span when ctx carries a trace.
func (c *CVD) cachedRows(ctx context.Context, key string, vids []vgraph.VersionID, compute func(context.Context) ([]engine.Column, []engine.Row, error)) (_ []engine.Column, _ []engine.Row, hit bool, _ error) {
	ctx, span := obs.StartSpan(ctx, "checkout.cache")
	hit = true
	// Tag the entry with the versions it reads, so partition migrations can
	// invalidate exactly the entries they touched (nil tag = all versions,
	// used by the all-versions view).
	var tag *bitmap.Bitmap
	if len(vids) > 0 {
		tag = bitmap.FromSlice(cacheVids(vids))
	}
	e, err := c.cache.GetOrComputeTagged(c.name, key, tag, func() (cache.Entry, error) {
		hit = false
		cols, rows, err := compute(ctx)
		if err != nil {
			return cache.Entry{}, err
		}
		return cache.Entry{Cols: cols, Rows: rows}, nil
	})
	if span != nil {
		span.SetAttr("hit", strconv.FormatBool(hit))
		span.End()
	}
	if err != nil {
		return nil, nil, hit, err
	}
	return e.Cols, append([]engine.Row(nil), e.Rows...), hit, nil
}

// Checkout materializes the given versions as rows. With multiple versions,
// records are added in the precedence order listed: a record whose primary
// key was already added is omitted, so the result respects the key (Section
// 2.2). Without a primary key, duplicate rids are dropped but distinct
// records are all kept.
//
// When a cache is attached, the materialized record set is served from and
// retained in it, keyed by the canonical form of the version set (order is
// preserved in the key for multi-version requests, whose precedence rule
// makes order significant).
func (c *CVD) Checkout(vids ...vgraph.VersionID) ([]engine.Row, error) {
	return c.CheckoutCtx(context.Background(), vids...)
}

// CheckoutCtx is Checkout with trace propagation: when ctx carries a trace,
// the cache lookup, bitmap resolution, and record fetch each contribute a
// nested span, and the end-to-end latency lands in the hit or miss
// histogram (SetMetrics).
func (c *CVD) CheckoutCtx(ctx context.Context, vids ...vgraph.VersionID) ([]engine.Row, error) {
	start := time.Now()
	if c.cache == nil {
		rows, err := c.checkoutUncached(ctx, vids...)
		if err == nil {
			c.observeCheckout(time.Since(start).Seconds(), false)
			c.heat.RecordCheckout(vids, false)
		}
		return rows, err
	}
	key := cache.Key(c.name, cacheVids(vids), nil, true)
	_, rows, hit, err := c.cachedRows(ctx, key, vids, func(ctx context.Context) ([]engine.Column, []engine.Row, error) {
		rows, err := c.checkoutUncached(ctx, vids...)
		if err != nil {
			return nil, nil, err
		}
		return append([]engine.Column(nil), c.cols...), rows, nil
	})
	if err == nil {
		c.observeCheckout(time.Since(start).Seconds(), hit)
		c.heat.RecordCheckout(vids, hit)
	}
	return rows, err
}

// checkoutUncached is Checkout's materialization path: membership
// resolution (validating the versions and touching their rlist bitmaps),
// then the record fetch with rid/primary-key precedence dedup.
func (c *CVD) checkoutUncached(ctx context.Context, vids ...vgraph.VersionID) ([]engine.Row, error) {
	if len(vids) == 0 {
		return nil, fmt.Errorf("core: %s: checkout needs at least one version", c.name)
	}
	_, bitmapSpan := obs.StartSpan(ctx, "bitmap.resolve")
	for _, vid := range vids {
		if _, err := c.vm.info(vid); err != nil {
			bitmapSpan.End()
			return nil, err
		}
		if _, err := c.vm.rlistSet(vid); err != nil {
			bitmapSpan.End()
			return nil, err
		}
	}
	bitmapSpan.End()
	_, fetchSpan := obs.StartSpan(ctx, "record.fetch")
	defer fetchSpan.End()
	if len(vids) == 1 {
		// One version needs no precedence dedup: its rlist is a set (each
		// rid fetched once) and commit rejects duplicate primary keys
		// within a version, so the maps below could never drop a row. On
		// big checkouts the map builds cost more than the fetch itself.
		recs, err := c.model.Checkout(vids[0])
		if err != nil {
			return nil, err
		}
		out := make([]engine.Row, len(recs))
		for i := range recs {
			out[i] = recs[i].Data
		}
		fetchSpan.SetAttr("rows", strconv.Itoa(len(out)))
		return out, nil
	}
	pos := c.pkPositions()
	seenPK := make(map[string]bool)
	seenRid := make(map[vgraph.RecordID]bool)
	var out []engine.Row
	for _, vid := range vids {
		recs, err := c.model.Checkout(vid)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if rec.RID != 0 && seenRid[rec.RID] {
				continue
			}
			if rec.RID != 0 {
				seenRid[rec.RID] = true
			}
			if len(pos) > 0 {
				vals := make([]engine.Value, len(pos))
				for j, p := range pos {
					vals[j] = rec.Data[p]
				}
				k := engine.EncodeKey(vals...)
				if seenPK[k] {
					continue
				}
				seenPK[k] = true
			}
			out = append(out, rec.Data)
		}
	}
	fetchSpan.SetAttr("rows", strconv.Itoa(len(out)))
	return out, nil
}

// Diff returns the records present in a but not b, and in b but not a — the
// standard differencing operation of Section 2.2. The two sides together are
// the symmetric difference of the versions' rlists, fetched from the data
// tables in one pass and split by membership in a; neither version is
// materialized in full.
func (c *CVD) Diff(a, b vgraph.VersionID) (onlyA, onlyB []engine.Row, err error) {
	sa, err := c.vm.rlistSet(a)
	if err != nil {
		return nil, nil, err
	}
	sb, err := c.vm.rlistSet(b)
	if err != nil {
		return nil, nil, err
	}
	recs, err := c.fetchRecords(bitmap.Xor(sa, sb))
	if err != nil {
		return nil, nil, err
	}
	onlyA, onlyB = []engine.Row{}, []engine.Row{}
	for _, r := range recs {
		if sa.Contains(int64(r.RID)) {
			onlyA = append(onlyA, r.Data)
		} else {
			onlyB = append(onlyB, r.Data)
		}
	}
	return onlyA, onlyB, nil
}

// SetOp is a record-membership set operator applied between versions.
type SetOp uint8

// The membership operators of multi-version scans.
const (
	SetOpUnion SetOp = iota
	SetOpIntersect
	SetOpExcept
)

// Compile-time ties between SetOp values and the cache package's key
// operator codes (cache.Key canonicalizes commutative chains by these
// values; a drifted constant would silently merge non-equivalent scans).
var (
	_ = [1]struct{}{}[uint8(SetOpUnion)-cache.OpUnion]
	_ = [1]struct{}{}[uint8(SetOpIntersect)-cache.OpIntersect]
	_ = [1]struct{}{}[uint8(SetOpExcept)-cache.OpExcept]
)

// ParseSetOp maps the SQL keywords UNION/INTERSECT/EXCEPT onto SetOps.
func ParseSetOp(kw string) (SetOp, error) {
	switch kw {
	case "UNION", "union":
		return SetOpUnion, nil
	case "INTERSECT", "intersect":
		return SetOpIntersect, nil
	case "EXCEPT", "except":
		return SetOpExcept, nil
	}
	return 0, fmt.Errorf("core: unknown set operator %q", kw)
}

// MembershipSet evaluates a left-associative chain of record-set operations
// over version rlists: vids[0] op[0] vids[1] op[1] ... — pure bitmap algebra
// that never touches the data tables. len(ops) must be len(vids)-1.
func (c *CVD) MembershipSet(vids []vgraph.VersionID, ops []SetOp) (*bitmap.Bitmap, error) {
	if len(vids) == 0 {
		return nil, fmt.Errorf("core: %s: membership set needs at least one version", c.name)
	}
	if len(ops) != len(vids)-1 {
		return nil, fmt.Errorf("core: %s: %d versions need %d operators, have %d",
			c.name, len(vids), len(vids)-1, len(ops))
	}
	acc, err := c.vm.rlistSet(vids[0])
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		next, err := c.vm.rlistSet(vids[i+1])
		if err != nil {
			return nil, err
		}
		switch op {
		case SetOpUnion:
			acc = bitmap.Or(acc, next)
		case SetOpIntersect:
			acc = bitmap.And(acc, next)
		case SetOpExcept:
			acc = bitmap.AndNot(acc, next)
		default:
			return nil, fmt.Errorf("core: %s: unknown set operator %d", c.name, op)
		}
	}
	return acc, nil
}

// MultiVersionCheckout materializes the record set produced by a chain of
// version set operations (`VERSION v1 INTERSECT v2 ...` scans): membership
// is resolved with bitmap algebra first, and only the result records touch
// the data tables. The result is record-id algebra — no primary-key
// precedence is applied, since each record appears once.
//
// When a cache is attached it is consulted before bitmap resolution; keys
// canonicalize commutative chains (pure UNION, pure INTERSECT), so
// `VERSION 2 UNION 3` and `VERSION 3 UNION 2` share one entry. Trace spans
// and hit/miss latency are observed as in CheckoutCtx.
func (c *CVD) MultiVersionCheckout(ctx context.Context, vids []vgraph.VersionID, ops []SetOp) ([]engine.Row, error) {
	start := time.Now()
	if c.cache == nil {
		rows, err := c.multiVersionCheckoutUncached(ctx, vids, ops)
		if err == nil {
			c.observeCheckout(time.Since(start).Seconds(), false)
			c.heat.RecordCheckout(vids, false)
		}
		return rows, err
	}
	opBytes := make([]uint8, len(ops))
	for i, op := range ops {
		opBytes[i] = uint8(op)
	}
	key := cache.Key(c.name, cacheVids(vids), opBytes, false)
	_, rows, hit, err := c.cachedRows(ctx, key, vids, func(ctx context.Context) ([]engine.Column, []engine.Row, error) {
		rows, err := c.multiVersionCheckoutUncached(ctx, vids, ops)
		if err != nil {
			return nil, nil, err
		}
		return append([]engine.Column(nil), c.cols...), rows, nil
	})
	if err == nil {
		c.observeCheckout(time.Since(start).Seconds(), hit)
		c.heat.RecordCheckout(vids, hit)
	}
	return rows, err
}

// multiVersionCheckoutUncached is MultiVersionCheckout's materialization
// path: bitmap algebra over the rlists, then one fetch of the surviving
// records.
func (c *CVD) multiVersionCheckoutUncached(ctx context.Context, vids []vgraph.VersionID, ops []SetOp) ([]engine.Row, error) {
	_, bitmapSpan := obs.StartSpan(ctx, "bitmap.resolve")
	for _, v := range vids {
		if _, err := c.vm.info(v); err != nil {
			bitmapSpan.End()
			return nil, err
		}
	}
	set, err := c.MembershipSet(vids, ops)
	if err != nil {
		bitmapSpan.End()
		return nil, err
	}
	if bitmapSpan != nil {
		bitmapSpan.SetAttr("records", strconv.FormatInt(set.Cardinality(), 10))
		bitmapSpan.End()
	}
	_, fetchSpan := obs.StartSpan(ctx, "record.fetch")
	defer fetchSpan.End()
	return c.fetchRows(set)
}

// AllVersionsCheckout materializes the all-versions view (`FROM CVD name` in
// SQL): a leading vid column followed by the data attributes, one row per
// (version, record) pair — the "table with versioned records" of Figure 1a,
// generated on the fly and cached like any other checkout, with trace spans
// and hit/miss latency observed as in CheckoutCtx.
func (c *CVD) AllVersionsCheckout(ctx context.Context) ([]engine.Column, []engine.Row, error) {
	start := time.Now()
	if c.cache == nil {
		cols, rows, err := c.allVersionsUncached(ctx)
		if err == nil {
			c.observeCheckout(time.Since(start).Seconds(), false)
			c.heat.RecordCheckout(nil, false)
		}
		return cols, rows, err
	}
	cols, rows, hit, err := c.cachedRows(ctx, cache.AllVersionsKey(c.name), nil, c.allVersionsUncached)
	if err == nil {
		c.observeCheckout(time.Since(start).Seconds(), hit)
		c.heat.RecordCheckout(nil, hit)
	}
	return cols, rows, err
}

func (c *CVD) allVersionsUncached(ctx context.Context) ([]engine.Column, []engine.Row, error) {
	cols := append([]engine.Column{{Name: "vid", Type: engine.KindInt}},
		append([]engine.Column(nil), c.cols...)...)
	var out []engine.Row
	for _, v := range c.vm.order {
		// Uncached per-version materialization on purpose: the aggregate
		// view is cached as one entry, and also inserting N per-version
		// entries would double-store every record and churn the LRU.
		rows, err := c.checkoutUncached(ctx, v)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rows {
			row := make(engine.Row, 0, len(r)+1)
			row = append(row, engine.IntValue(int64(v)))
			row = append(row, r...)
			out = append(out, row)
		}
	}
	return cols, out, nil
}

// fetchRows materializes the data rows of a membership set.
func (c *CVD) fetchRows(set *bitmap.Bitmap) ([]engine.Row, error) {
	recs, err := c.fetchRecords(set)
	if err != nil {
		return nil, err
	}
	rows := make([]engine.Row, len(recs))
	for i, r := range recs {
		rows[i] = r.Data
	}
	return rows, nil
}

// fetchRecords materializes the records of a membership set, rids included.
func (c *CVD) fetchRecords(set *bitmap.Bitmap) ([]Record, error) {
	if set.IsEmpty() {
		return nil, nil
	}
	return c.model.FetchRecordSet(set)
}

// Drop removes the CVD: model tables, system tables, and the catalog entry.
func (c *CVD) Drop() error {
	if err := c.model.Drop(); err != nil {
		return err
	}
	return DropSetAside(c.db, c.name)
}
