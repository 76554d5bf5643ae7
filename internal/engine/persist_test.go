package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildPersistDB assembles a database exercising every feature the snapshot
// format must carry: settings, typed columns of all kinds, NULLs, primary
// keys, secondary (including composite) indexes, and a clustered layout.
func buildPersistDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.SetSetting("join_method", "merge")
	db.SetSetting("custom", "xyz")

	emp, err := db.CreateTable("emp", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
		{Name: "salary", Type: KindFloat},
		{Name: "active", Type: KindBool},
		{Name: "teams", Type: KindIntArray},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{IntValue(1), StringValue("ada"), FloatValue(100.5), BoolValue(true), ArrayValue([]int64{1, 2})},
		{IntValue(2), StringValue("bob"), FloatValue(90.25), BoolValue(false), ArrayValue([]int64{2})},
		{IntValue(3), StringValue("cyn"), NullValue(), BoolValue(true), ArrayValue(nil)},
	}
	if err := emp.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	if err := emp.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("active", "name"); err != nil {
		t.Fatal(err)
	}
	if err := emp.Cluster("id"); err != nil {
		t.Fatal(err)
	}

	// A second, plainer table ensures multi-table snapshots work.
	log, err := db.CreateTable("log", []Column{
		{Name: "seq", Type: KindInt},
		{Name: "msg", Type: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.InsertMany([]Row{
		{IntValue(10), StringValue("hello")},
		{IntValue(20), StringValue("world")},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := buildPersistDB(t)
	path := filepath.Join(t.TempDir(), "snap.odb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Settings survive.
	if got := re.Setting("join_method"); got != "merge" {
		t.Errorf("setting join_method = %q, want merge", got)
	}
	if got := re.Setting("custom"); got != "xyz" {
		t.Errorf("setting custom = %q, want xyz", got)
	}

	emp := re.Table("emp")
	if emp == nil {
		t.Fatal("table emp missing after reload")
	}
	// Schema and rows survive, with value kinds intact.
	if got, want := len(emp.Columns()), 5; got != want {
		t.Fatalf("emp columns = %d, want %d", got, want)
	}
	if emp.NumRows() != 3 {
		t.Fatalf("emp rows = %d, want 3", emp.NumRows())
	}
	var ada Row
	emp.Scan(func(_ RowID, r Row) bool {
		if r[0].I == 1 {
			ada = r
			return false
		}
		return true
	})
	if ada == nil {
		t.Fatal("row id=1 missing after reload")
	}
	if ada[1].S != "ada" || ada[2].F != 100.5 || !ada[3].Bool() {
		t.Errorf("row id=1 corrupted: %v", ada)
	}
	if len(ada[4].A) != 2 || ada[4].A[0] != 1 || ada[4].A[1] != 2 {
		t.Errorf("integer[] cell corrupted: %v", ada[4])
	}
	// The NULL salary stays NULL.
	emp.Scan(func(_ RowID, r Row) bool {
		if r[0].I == 3 && !r[2].IsNull() {
			t.Errorf("NULL cell became %v", r[2])
		}
		return true
	})

	// Primary key survives (and CheckPrimaryKey enforces it again).
	pk := emp.PrimaryKey()
	if len(pk) != 1 || emp.Columns()[pk[0]].Name != "id" {
		t.Errorf("primary key = %v, want [id]", pk)
	}
	if err := emp.CheckPrimaryKey(); err != nil {
		t.Errorf("CheckPrimaryKey on clean reload: %v", err)
	}
	if _, err := emp.Insert(Row{IntValue(1), StringValue("dup"), NullValue(), BoolValue(false), ArrayValue(nil)}); err != nil {
		t.Fatal(err)
	}
	if err := emp.CheckPrimaryKey(); err == nil {
		t.Error("duplicate primary key undetected after reload")
	}

	// Secondary indexes survive, including the composite one.
	if emp.Index("name") == nil {
		t.Error("index on (name) missing after reload")
	}
	if emp.Index("active", "name") == nil {
		t.Error("index on (active,name) missing after reload")
	}

	// Clustered layout survives.
	if got := emp.ClusteredOn(); got != "id" {
		t.Errorf("clustered on %q, want id", got)
	}

	// Second table intact.
	log := re.Table("log")
	if log == nil || log.NumRows() != 2 {
		t.Fatalf("table log missing or wrong size after reload")
	}
}

// TestSaveAtomicity checks the write-temp-then-rename contract: a failed
// save must not clobber an existing good snapshot, and no .tmp file is left
// behind after success.
func TestSaveAtomicity(t *testing.T) {
	db := buildPersistDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.odb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after save: %v", err)
	}
	// Saving into a directory that cannot be written fails without
	// touching the original.
	if err := db.Save(filepath.Join(dir, "missing", "snap.odb")); err == nil {
		t.Error("save into missing directory succeeded")
	}
	if _, err := Load(path); err != nil {
		t.Errorf("original snapshot unreadable after failed save: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.odb")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("loading garbage succeeded")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.odb")); err == nil {
		t.Error("loading missing file succeeded")
	}
	// A missing file is an I/O problem, not corruption: the typed sentinel
	// must not be attached to it.
	if _, err := Load(filepath.Join(t.TempDir(), "missing.odb")); errors.Is(err, ErrCorruptSnapshot) {
		t.Error("missing file misreported as corrupt snapshot")
	}
}

// TestLoadCorruptSnapshotTyped runs damaged snapshot files through Load and
// asserts every decode failure wraps ErrCorruptSnapshot and returns no DB.
func TestLoadCorruptSnapshotTyped(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.odb")
	if err := buildPersistDB(t).Save(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// (gob carries no checksum, so a bit flip inside a value's payload can
	// decode "successfully" to wrong data — only structural damage like
	// truncation or garbage is detectable, and those must be typed.)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a snapshot at all")},
		{"truncated-header", raw[:3]},
		{"truncated-half", raw[:len(raw)/2]},
		{"truncated-tail", raw[:len(raw)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".odb")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Load(path)
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("error %v does not wrap ErrCorruptSnapshot", err)
			}
			if db != nil {
				t.Fatal("partially-initialized DB returned alongside error")
			}
		})
	}
}

// TestSnapshotWalLSNRoundTrip checks the WAL handoff: the applied-LSN marker
// travels through Snapshot -> WriteFile -> Load unchanged, and old snapshots
// without the field decode as zero.
func TestSnapshotWalLSNRoundTrip(t *testing.T) {
	db := buildPersistDB(t)
	db.SetWalLSN(41)
	db.AdvanceWalLSN(57)
	db.AdvanceWalLSN(12) // lower LSNs never regress the marker
	if got := db.WalLSN(); got != 57 {
		t.Fatalf("WalLSN = %d, want 57", got)
	}
	path := filepath.Join(t.TempDir(), "wal_lsn.gob")
	snap := db.Snapshot()
	if snap.WalLSN != 57 {
		t.Fatalf("snapshot WalLSN = %d, want 57", snap.WalLSN)
	}
	if _, err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.WalLSN(); got != 57 {
		t.Fatalf("loaded WalLSN = %d, want 57", got)
	}
}
