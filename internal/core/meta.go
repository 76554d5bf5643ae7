package core

import (
	"fmt"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// VersionInfo is the version-level provenance of Section 3.3 (Figure 4's
// metadata table row).
type VersionInfo struct {
	ID           vgraph.VersionID
	Parents      []vgraph.VersionID
	CheckoutTime time.Time
	CommitTime   time.Time
	Message      string
	// Attributes lists the attribute ids (into the attribute table) the
	// version's schema comprises.
	Attributes []int64
	NumRecords int
}

// versionManager is in charge of recording and retrieving versioning
// information: the metadata table and the version-membership (rlist) table,
// plus an in-memory mirror used to build graphs quickly. Membership is held
// as compressed bitmaps — the same objects stored in the rlist table rows —
// and treated as immutable once committed, so set algebra (diff, multi-
// version scans, graph weights) shares them freely without copying.
type versionManager struct {
	db  *engine.DB
	cvd string

	infos  map[vgraph.VersionID]*VersionInfo
	order  []vgraph.VersionID
	rlists map[vgraph.VersionID]*bitmap.Bitmap
	nextV  vgraph.VersionID
}

func (vm *versionManager) metaName() string   { return vm.cvd + "__meta" }
func (vm *versionManager) rlistsName() string { return vm.cvd + "__rlists" }

func newVersionManager(db *engine.DB, cvd string) *versionManager {
	return &versionManager{
		db:     db,
		cvd:    cvd,
		infos:  make(map[vgraph.VersionID]*VersionInfo),
		rlists: make(map[vgraph.VersionID]*bitmap.Bitmap),
		nextV:  1,
	}
}

func (vm *versionManager) init() error {
	mt, err := vm.db.CreateTable(vm.metaName(), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "parents", Type: engine.KindIntArray},
		{Name: "checkout_t", Type: engine.KindInt},
		{Name: "commit_t", Type: engine.KindInt},
		{Name: "msg", Type: engine.KindString},
		{Name: "attributes", Type: engine.KindIntArray},
		{Name: "num_records", Type: engine.KindInt},
	})
	if err != nil {
		return err
	}
	if err := mt.SetPrimaryKey("vid"); err != nil {
		return err
	}
	rt, err := vm.db.CreateTable(vm.rlistsName(), []engine.Column{
		{Name: "vid", Type: engine.KindInt},
		{Name: "rlist", Type: engine.KindBitmap},
	})
	if err != nil {
		return err
	}
	return rt.SetPrimaryKey("vid")
}

// load rebuilds the in-memory mirror from the system tables.
func (vm *versionManager) load() error {
	mt, err := vm.db.MustTable(vm.metaName())
	if err != nil {
		return err
	}
	rt, err := vm.db.MustTable(vm.rlistsName())
	if err != nil {
		return err
	}
	var infos []*VersionInfo
	mt.Scan(func(_ engine.RowID, row engine.Row) bool {
		info := &VersionInfo{
			ID:           vgraph.VersionID(row[0].I),
			CheckoutTime: time.Unix(0, row[2].I),
			CommitTime:   time.Unix(0, row[3].I),
			Message:      row[4].S,
			Attributes:   append([]int64(nil), row[5].A...),
			NumRecords:   int(row[6].I),
		}
		for _, p := range row[1].A {
			info.Parents = append(info.Parents, vgraph.VersionID(p))
		}
		infos = append(infos, info)
		return true
	})
	// Version ids are allocated densely in commit order.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	for _, info := range infos {
		vm.infos[info.ID] = info
		vm.order = append(vm.order, info.ID)
		if info.ID >= vm.nextV {
			vm.nextV = info.ID + 1
		}
	}
	rt.Scan(func(_ engine.RowID, row engine.Row) bool {
		set := row[1].B
		if set == nil {
			// Snapshots written before the bitmap representation stored
			// rlists as int arrays; widen on load.
			set = bitmap.FromSlice(row[1].A)
		}
		vm.rlists[vgraph.VersionID(row[0].I)] = set
		return true
	})
	return nil
}

// allocVersion reserves the next version id.
func (vm *versionManager) allocVersion() vgraph.VersionID {
	v := vm.nextV
	vm.nextV++
	return v
}

// add records a committed version in both tables and the mirror. set is
// the version's canonical membership bitmap; it is stored as is and must
// not be mutated afterwards.
func (vm *versionManager) add(info *VersionInfo, set *bitmap.Bitmap) error {
	mt, err := vm.db.MustTable(vm.metaName())
	if err != nil {
		return err
	}
	rt, err := vm.db.MustTable(vm.rlistsName())
	if err != nil {
		return err
	}
	parents := make([]int64, len(info.Parents))
	for i, p := range info.Parents {
		parents[i] = int64(p)
	}
	_, err = mt.Insert(engine.Row{
		engine.IntValue(int64(info.ID)),
		engine.ArrayValue(parents),
		engine.IntValue(info.CheckoutTime.UnixNano()),
		engine.IntValue(info.CommitTime.UnixNano()),
		engine.StringValue(info.Message),
		engine.ArrayValue(append([]int64(nil), info.Attributes...)),
		engine.IntValue(int64(info.NumRecords)),
	})
	if err != nil {
		return err
	}
	if _, err := rt.Insert(engine.Row{
		engine.IntValue(int64(info.ID)),
		engine.BitmapValue(set),
	}); err != nil {
		return err
	}
	vm.infos[info.ID] = info
	vm.order = append(vm.order, info.ID)
	vm.rlists[info.ID] = set
	return nil
}

func (vm *versionManager) info(v vgraph.VersionID) (*VersionInfo, error) {
	if i, ok := vm.infos[v]; ok {
		return i, nil
	}
	return nil, fmt.Errorf("core: %s: no version %d", vm.cvd, v)
}

// rlist materializes the record ids of a version as a fresh slice (callers
// may mutate it freely).
func (vm *versionManager) rlist(v vgraph.VersionID) ([]vgraph.RecordID, error) {
	set, err := vm.rlistSet(v)
	if err != nil {
		return nil, err
	}
	out := make([]vgraph.RecordID, 0, set.Cardinality())
	set.Iterate(func(r int64) bool {
		out = append(out, vgraph.RecordID(r))
		return true
	})
	return out, nil
}

// rlistSet returns the version's membership bitmap. The bitmap is shared and
// must not be mutated.
func (vm *versionManager) rlistSet(v vgraph.VersionID) (*bitmap.Bitmap, error) {
	if set, ok := vm.rlists[v]; ok {
		return set, nil
	}
	return nil, fmt.Errorf("core: %s: no version %d", vm.cvd, v)
}

// bipartite builds the version-record bipartite graph of the CVD, sharing
// the immutable membership bitmaps.
func (vm *versionManager) bipartite() *vgraph.Bipartite {
	b := vgraph.NewBipartite()
	for _, v := range vm.order {
		b.AddVersionSet(v, vm.rlists[v])
	}
	return b
}

// levels computes every version's depth (roots have level 1) straight from
// the metadata mirror. Commit order is a topological order, so one pass
// suffices — much cheaper than building the weighted version graph when only
// depths are needed (LCA tie-breaking).
func (vm *versionManager) levels() map[vgraph.VersionID]int {
	lv := make(map[vgraph.VersionID]int, len(vm.order))
	for _, v := range vm.order {
		best := 0
		for _, p := range vm.infos[v].Parents {
			if lv[p] > best {
				best = lv[p]
			}
		}
		lv[v] = best + 1
	}
	return lv
}

// graph builds the version graph with record-intersection edge weights.
func (vm *versionManager) graph() (*vgraph.Graph, error) {
	b := vm.bipartite()
	parents := make(map[vgraph.VersionID][]vgraph.VersionID, len(vm.order))
	for _, v := range vm.order {
		parents[v] = vm.infos[v].Parents
	}
	return b.Graph(parents)
}

func (vm *versionManager) drop() error {
	for _, n := range []string{vm.metaName(), vm.rlistsName()} {
		if vm.db.HasTable(n) {
			if err := vm.db.DropTable(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordManager is in charge of record identity: allocating rids and
// remembering content hashes so commits can match unchanged rows against
// their parent versions (the no-cross-version-diff rule).
type recordManager struct {
	db  *engine.DB
	cvd string

	hashes map[vgraph.RecordID]RecordHash
	nextR  vgraph.RecordID
}

func (rm *recordManager) tableName() string { return rm.cvd + "__records" }

func newRecordManager(db *engine.DB, cvd string) *recordManager {
	return &recordManager{
		db:     db,
		cvd:    cvd,
		hashes: make(map[vgraph.RecordID]RecordHash),
		nextR:  1,
	}
}

func (rm *recordManager) init() error {
	t, err := rm.db.CreateTable(rm.tableName(), []engine.Column{
		{Name: "rid", Type: engine.KindInt},
		{Name: "h1", Type: engine.KindInt},
		{Name: "h2", Type: engine.KindInt},
	})
	if err != nil {
		return err
	}
	return t.SetPrimaryKey("rid")
}

func (rm *recordManager) load() error {
	t, err := rm.db.MustTable(rm.tableName())
	if err != nil {
		return err
	}
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		rid := vgraph.RecordID(row[0].I)
		rm.hashes[rid] = RecordHash{H1: uint64(row[1].I), H2: uint64(row[2].I)}
		if rid >= rm.nextR {
			rm.nextR = rid + 1
		}
		return true
	})
	return nil
}

// alloc registers one new record per content hash, under consecutive rids
// from nextR on.
func (rm *recordManager) alloc(hashes []RecordHash) error {
	if len(hashes) == 0 {
		return nil
	}
	t, err := rm.db.MustTable(rm.tableName())
	if err != nil {
		return err
	}
	for _, h := range hashes {
		rid := rm.nextR
		if _, err := t.Insert(engine.Row{
			engine.IntValue(int64(rid)),
			engine.IntValue(int64(h.H1)),
			engine.IntValue(int64(h.H2)),
		}); err != nil {
			return err
		}
		rm.nextR++
		rm.hashes[rid] = h
	}
	return nil
}

// hashIndex builds a hash → rid map over the given records, used to match a
// committed table against its parent versions.
func (rm *recordManager) hashIndex(rids []vgraph.RecordID) map[RecordHash]vgraph.RecordID {
	out := make(map[RecordHash]vgraph.RecordID, len(rids))
	for _, rid := range rids {
		if h, ok := rm.hashes[rid]; ok {
			out[h] = rid
		}
	}
	return out
}

func (rm *recordManager) drop() error {
	if rm.db.HasTable(rm.tableName()) {
		return rm.db.DropTable(rm.tableName())
	}
	return nil
}

// Attribute describes one entry of the attribute table of Section 3.3
// (Figure 5b/c): any change of name or type yields a new entry.
type Attribute struct {
	ID   int64
	Name string
	Type engine.Kind
}

// attrManager maintains the attribute table and the CVD's current schema
// under the single-pool method.
type attrManager struct {
	db  *engine.DB
	cvd string

	attrs  map[int64]Attribute
	nextID int64
}

func (am *attrManager) tableName() string { return am.cvd + "__attrs" }

func newAttrManager(db *engine.DB, cvd string) *attrManager {
	return &attrManager{db: db, cvd: cvd, attrs: make(map[int64]Attribute), nextID: 1}
}

func (am *attrManager) init() error {
	t, err := am.db.CreateTable(am.tableName(), []engine.Column{
		{Name: "attr_id", Type: engine.KindInt},
		{Name: "attr_name", Type: engine.KindString},
		{Name: "data_type", Type: engine.KindString},
	})
	if err != nil {
		return err
	}
	return t.SetPrimaryKey("attr_id")
}

func (am *attrManager) load() error {
	t, err := am.db.MustTable(am.tableName())
	if err != nil {
		return err
	}
	var loadErr error
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		k, err := engine.KindFromName(row[2].S)
		if err != nil {
			loadErr = err
			return false
		}
		a := Attribute{ID: row[0].I, Name: row[1].S, Type: k}
		am.attrs[a.ID] = a
		if a.ID >= am.nextID {
			am.nextID = a.ID + 1
		}
		return true
	})
	return loadErr
}

// add registers a new attribute entry and returns its id.
func (am *attrManager) add(name string, k engine.Kind) (int64, error) {
	t, err := am.db.MustTable(am.tableName())
	if err != nil {
		return 0, err
	}
	id := am.nextID
	am.nextID++
	if _, err := t.Insert(engine.Row{
		engine.IntValue(id),
		engine.StringValue(name),
		engine.StringValue(k.String()),
	}); err != nil {
		return 0, err
	}
	am.attrs[id] = Attribute{ID: id, Name: name, Type: k}
	return id, nil
}

// find returns the id of an existing (name, type) entry, or 0.
func (am *attrManager) find(name string, k engine.Kind) int64 {
	for id, a := range am.attrs {
		if a.Name == name && a.Type == k {
			return id
		}
	}
	return 0
}

func (am *attrManager) get(id int64) (Attribute, bool) {
	a, ok := am.attrs[id]
	return a, ok
}

func (am *attrManager) drop() error {
	if am.db.HasTable(am.tableName()) {
		return am.db.DropTable(am.tableName())
	}
	return nil
}
