package orpheusdb

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"orpheusdb/internal/core"
)

// TestOneEntryPointPerOperation: an operation has one exported entry point,
// which takes ctx under the plain name, so no exported XCtx method on Store,
// Dataset or core.CVD has an X twin. The exceptions are the four pairs the
// load generator in bench/ calls by both names or by the Ctx name alone;
// they go once it is moved to the plain names.
func TestOneEntryPointPerOperation(t *testing.T) {
	pinned := map[string]bool{
		"Store.Run":      false,
		"Dataset.Commit": false,
		"Dataset.Merge":  false,
		"CVD.Checkout":   false,
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(&Store{}), reflect.TypeOf(&Dataset{}), reflect.TypeOf(&core.CVD{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			plain, ok := strings.CutSuffix(typ.Method(i).Name, "Ctx")
			if !ok {
				continue
			}
			if _, twin := typ.MethodByName(plain); !twin {
				continue
			}
			pair := typ.Elem().Name() + "." + plain
			if _, ok := pinned[pair]; !ok {
				t.Errorf("%s and %sCtx are two entry points for one operation; keep one, taking ctx, under the plain name", pair, plain)
				continue
			}
			pinned[pair] = true
		}
	}
	for pair, seen := range pinned {
		if !seen {
			t.Errorf("%s/%sCtx is listed as a pinned pair but is gone; drop it from the list", pair, pair[strings.Index(pair, ".")+1:])
		}
	}
}

func geneStore(t *testing.T) (*Store, *Dataset, VersionID, VersionID) {
	t.Helper()
	store := NewStore()
	cols := []Column{
		{Name: "gene", Type: KindString},
		{Name: "score", Type: KindInt},
	}
	ds, err := store.Init("genes", cols, InitOptions{PrimaryKey: []string{"gene"}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ds.Commit([]Row{
		{String("brca1"), Int(10)},
		{String("tp53"), Int(20)},
	}, nil, "import")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ds.Commit([]Row{
		{String("brca1"), Int(15)},
		{String("tp53"), Int(20)},
		{String("egfr"), Int(5)},
	}, []VersionID{v1}, "update scores")
	if err != nil {
		t.Fatal(err)
	}
	return store, ds, v1, v2
}

func TestRunVersionOfCVD(t *testing.T) {
	store, _, _, _ := geneStore(t)
	r, err := store.Run("SELECT count(*) FROM VERSION 2 OF CVD genes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 3 {
		t.Fatalf("count = %d", r.Rows[0][0].I)
	}
	// Temp tables must be cleaned up.
	for _, n := range store.DB().TableNames() {
		if len(n) > 13 && n[:13] == "__orpheus_tmp" {
			t.Fatalf("leftover temp table %s", n)
		}
	}
	if _, err := store.Run("SELECT * FROM VERSION 9 OF CVD genes"); err == nil {
		t.Fatal("missing version accepted")
	}
	if _, err := store.Run("SELECT * FROM VERSION 1 OF CVD nope"); err == nil {
		t.Fatal("missing CVD accepted")
	}
}

func TestRunAllVersionsView(t *testing.T) {
	store, _, _, _ := geneStore(t)
	r, err := store.Run("SELECT vid, count(*) AS c FROM CVD genes GROUP BY vid ORDER BY vid")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].I != 2 || r.Rows[1][1].I != 3 {
		t.Fatalf("per-version counts: %v", r.Rows)
	}
	// Version-property search via SQL: versions where brca1's score > 12.
	r, err = store.Run("SELECT DISTINCT vid FROM CVD genes WHERE gene = 'brca1' AND score > 12")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("property search: %v", r.Rows)
	}
}

func TestRunCrossVersionJoin(t *testing.T) {
	store, _, _, _ := geneStore(t)
	r, err := store.Run(`SELECT a.gene FROM VERSION 1 OF CVD genes AS a
		JOIN VERSION 2 OF CVD genes AS b ON a.gene = b.gene
		WHERE a.score <> b.score`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "brca1" {
		t.Fatalf("cross-version join: %v", r.Rows)
	}
}

func TestRunSubqueryRewrite(t *testing.T) {
	store, _, _, _ := geneStore(t)
	// CVD references inside IN subqueries are rewritten too.
	r, err := store.Run("SELECT gene FROM VERSION 2 OF CVD genes WHERE gene IN (SELECT gene FROM VERSION 1 OF CVD genes) ORDER BY gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("subquery rewrite: %v", r.Rows)
	}
}

func TestRunScriptAndPlainSQL(t *testing.T) {
	store, _, _, _ := geneStore(t)
	r, err := store.RunScript(context.Background(), `
		CREATE TABLE notes (gene text, note text);
		INSERT INTO notes VALUES ('brca1', 'important');
		SELECT count(*) FROM notes;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 1 {
		t.Fatalf("script: %v", r.Rows)
	}
}

func TestStagingTableFlow(t *testing.T) {
	store, ds, _, v2 := geneStore(t)
	if err := ds.CheckoutToTable("mytab", v2); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Run("UPDATE mytab SET score = 99 WHERE gene = 'egfr'"); err != nil {
		t.Fatal(err)
	}
	v3, err := ds.CommitTable("mytab", "bump egfr")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ds.Checkout(v3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r[0].S == "egfr" && r[1].I == 99 {
			found = true
		}
	}
	if !found {
		t.Fatalf("edit lost: %v", rows)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, ds, _, v2 := geneStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "genes.csv")
	if err := ds.CheckoutToCSV(path, v2); err != nil {
		t.Fatal(err)
	}
	v4, err := ds.CommitCSV(path, "recommit")
	if err != nil {
		t.Fatal(err)
	}
	onlyA, onlyB, err := ds.Diff(v4, v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyA) != 0 || len(onlyB) != 0 {
		t.Fatalf("roundtrip changed data: %v %v", onlyA, onlyB)
	}
	info, err := ds.Info(v4)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Parents) != 1 || info.Parents[0] != v2 {
		t.Fatalf("csv provenance: %v", info.Parents)
	}
}

func TestInitFromCSV(t *testing.T) {
	store := NewStore()
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := writeFile(path, "k:integer,v:string\n1,a\n2,b\n"); err != nil {
		t.Fatal(err)
	}
	ds, v, err := store.InitFromCSV("d", path, InitOptions{PrimaryKey: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ds.Checkout(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].S == "" {
		t.Fatalf("csv init: %v", rows)
	}
	// Untyped headers default to string.
	path2 := filepath.Join(dir, "u.csv")
	if err := writeFile(path2, "a,b\nx,y\n"); err != nil {
		t.Fatal(err)
	}
	cols, _, err := ReadCSV(path2)
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Type != KindString {
		t.Fatal("untyped column should be string")
	}
	// Malformed rows rejected.
	path3 := filepath.Join(dir, "bad.csv")
	if err := writeFile(path3, "a:integer\nnotanumber\n"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCSV(path3); err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.odb")
	store, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cols := []Column{{Name: "k", Type: KindInt}}
	ds, err := store.Init("d", cols, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ds.Commit([]Row{{Int(7)}}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := store2.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ds2.Checkout(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("reload: %v", rows)
	}
	if got := store2.List(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("List: %v", got)
	}
}

func TestUsersAndDrop(t *testing.T) {
	store, _, _, _ := geneStore(t)
	if store.WhoAmI() != "default" {
		t.Fatal("default user wrong")
	}
	if err := store.CreateUser("ann"); err != nil {
		t.Fatal(err)
	}
	if store.WhoAmI() != "ann" {
		t.Fatal("CreateUser should switch user")
	}
	if err := store.SetUser(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if got := store.Users(); len(got) != 1 {
		t.Fatalf("Users: %v", got)
	}
	if err := store.Drop("genes"); err != nil {
		t.Fatal(err)
	}
	if len(store.List()) != 0 {
		t.Fatal("drop did not remove CVD")
	}
}

func TestSearchVersionsAndLastModified(t *testing.T) {
	_, ds, _, v2 := geneStore(t)
	hits, err := ds.SearchVersions(func(info *VersionInfo) bool {
		return info.NumRecords >= 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != v2 {
		t.Fatalf("search: %v", hits)
	}
	lm, err := ds.LastModified()
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(lm) > time.Minute {
		t.Fatalf("LastModified: %v", lm)
	}
}

func TestDatasetAccessors(t *testing.T) {
	_, ds, v1, v2 := geneStore(t)
	if ds.Name() != "genes" || ds.Model() != PartitionedRlist {
		t.Fatal("accessors wrong")
	}
	if len(ds.Columns()) != 2 || len(ds.PrimaryKey()) != 1 {
		t.Fatal("schema accessors wrong")
	}
	if ds.LatestVersion() != v2 {
		t.Fatal("LatestVersion wrong")
	}
	if got := ds.Versions(); len(got) != 2 || got[0] != v1 {
		t.Fatalf("Versions: %v", got)
	}
	if ds.StorageBytes() <= 0 {
		t.Fatal("StorageBytes")
	}
	anc, err := ds.Ancestors(v2)
	if err != nil || len(anc) != 1 {
		t.Fatalf("Ancestors: %v %v", anc, err)
	}
	desc, err := ds.Descendants(v1)
	if err != nil || len(desc) != 1 {
		t.Fatalf("Descendants: %v %v", desc, err)
	}
}

func TestOptimizeViaPublicAPI(t *testing.T) {
	store := NewStore()
	cols := []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}}
	ds, err := store.Init("p", cols, InitOptions{}) // the default model repartitions
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	parent := VersionID(0)
	var parents []VersionID
	for i := 0; i < 30; i++ {
		rows = append(rows, Row{Int(int64(i)), Int(int64(i * 2))})
		v, err := ds.Commit(append([]Row(nil), rows...), parents, "step")
		if err != nil {
			t.Fatal(err)
		}
		parent = v
		parents = []VersionID{parent}
	}
	res, err := ds.Optimize(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 1 {
		t.Fatal("no partitions")
	}
	if _, err := ds.Checkout(parent); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeWeightedPublicAPI(t *testing.T) {
	store := NewStore()
	cols := []Column{{Name: "k", Type: KindInt}}
	ds, err := store.Init("w", cols, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	var parents []VersionID
	for i := 0; i < 25; i++ {
		rows = append(rows, Row{Int(int64(i))})
		v, err := ds.Commit(append([]Row(nil), rows...), parents, "step")
		if err != nil {
			t.Fatal(err)
		}
		parents = []VersionID{v}
	}
	freq := ds.RecencyWeights(0.2, 10)
	if _, err := ds.OptimizeWeighted(2.0, freq); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Checkout(parents[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteInDMLStatements(t *testing.T) {
	store, _, _, _ := geneStore(t)
	if _, err := store.Run("CREATE TABLE snapshot (gene text, score int)"); err != nil {
		t.Fatal(err)
	}
	// INSERT ... SELECT from a version.
	r, err := store.Run("INSERT INTO snapshot SELECT gene, score FROM VERSION 2 OF CVD genes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 3 {
		t.Fatalf("insert-select: %d", r.Affected)
	}
	// UPDATE with a versioned subquery.
	if _, err := store.Run("UPDATE snapshot SET score = 0 WHERE gene IN (SELECT gene FROM VERSION 1 OF CVD genes)"); err != nil {
		t.Fatal(err)
	}
	r, err = store.Run("SELECT count(*) FROM snapshot WHERE score = 0")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 2 {
		t.Fatalf("update via versioned subquery: %v", r.Rows)
	}
	// DELETE with a versioned subquery.
	if _, err := store.Run("DELETE FROM snapshot WHERE gene IN (SELECT gene FROM VERSION 1 OF CVD genes)"); err != nil {
		t.Fatal(err)
	}
	r, err = store.Run("SELECT count(*) FROM snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 1 {
		t.Fatalf("delete via versioned subquery: %v", r.Rows)
	}
}

func TestCommitWithSchemaPublicAPI(t *testing.T) {
	_, ds, _, v2 := geneStore(t)
	wide := []Column{
		{Name: "gene", Type: KindString},
		{Name: "score", Type: KindFloat},    // widened
		{Name: "pathway", Type: KindString}, // new
	}
	v3, err := ds.CommitWithSchema(context.Background(), wide, []Row{
		{String("brca1"), Float(0.5), String("hr")},
	}, []VersionID{v2}, "evolve")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ds.Checkout(v3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("evolved checkout: %v", rows)
	}
	if ds.Columns()[1].Type != KindFloat {
		t.Fatal("pool not widened")
	}
}

func TestSelectIntoThroughStore(t *testing.T) {
	store, _, _, _ := geneStore(t)
	if _, err := store.Run("SELECT gene INTO mygenes FROM VERSION 2 OF CVD genes WHERE score > 10"); err != nil {
		t.Fatal(err)
	}
	r, err := store.Run("SELECT count(*) FROM mygenes")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 2 {
		t.Fatalf("select into: %v", r.Rows)
	}
}
