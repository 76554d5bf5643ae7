package engine

import (
	"path/filepath"
	"testing"
)

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("a", []Column{{Name: "x", Type: KindInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", []Column{{Name: "x", Type: KindInt}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateTable("empty", nil); err == nil {
		t.Fatal("zero-column table accepted")
	}
	if _, err := db.CreateTable("dup", []Column{{Name: "x", Type: KindInt}, {Name: "x", Type: KindInt}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if !db.HasTable("a") || db.HasTable("b") {
		t.Fatal("HasTable wrong")
	}
	if _, err := db.MustTable("nope"); err == nil {
		t.Fatal("MustTable should fail")
	}
	if err := db.RenameTable("a", "b"); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("a") || !db.HasTable("b") {
		t.Fatal("rename failed")
	}
	if err := db.RenameTable("nope", "c"); err == nil {
		t.Fatal("rename of missing table accepted")
	}
	if err := db.DropTable("b"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("b"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestDBSettings(t *testing.T) {
	db := NewDB()
	if db.JoinMethodSetting() != HashJoin {
		t.Fatal("default join method should be hash")
	}
	db.SetSetting("join_method", "merge")
	if db.JoinMethodSetting() != MergeJoin {
		t.Fatal("setting not honored")
	}
	db.SetSetting("join_method", "bogus")
	if db.JoinMethodSetting() != HashJoin {
		t.Fatal("bad setting should fall back to hash")
	}
	if db.Setting("join_method") != "bogus" {
		t.Fatal("raw setting lost")
	}
}

func TestDBTableNamesSorted(t *testing.T) {
	db := NewDB()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.CreateTable(n, []Column{{Name: "x", Type: KindInt}}); err != nil {
			t.Fatal(err)
		}
	}
	names := db.TableNames()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("data", []Column{
		{Name: "rid", Type: KindInt},
		{Name: "tag", Type: KindString},
		{Name: "vals", Type: KindIntArray},
		{Name: "w", Type: KindFloat},
		{Name: "ok", Type: KindBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_, err := tab.Insert(Row{
			IntValue(int64(i)), StringValue("t"), ArrayValue([]int64{int64(i), int64(i + 1)}),
			FloatValue(float64(i) / 2), BoolValue(i%2 == 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.SetPrimaryKey("rid"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Cluster("rid"); err != nil {
		t.Fatal(err)
	}
	db.SetSetting("join_method", "merge")

	path := filepath.Join(t.TempDir(), "db.gob")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tab2 := db2.Table("data")
	if tab2 == nil || tab2.NumRows() != 300 {
		t.Fatal("rows lost")
	}
	if tab2.ClusteredOn() != "rid" {
		t.Fatalf("clustering lost: %q", tab2.ClusteredOn())
	}
	if len(tab2.PrimaryKey()) != 1 {
		t.Fatal("primary key lost")
	}
	if db2.JoinMethodSetting() != MergeJoin {
		t.Fatal("settings lost")
	}
	ids := tab2.Index("rid").Lookup(IntValue(42))
	if len(ids) != 1 {
		t.Fatal("index lost")
	}
	row := tab2.Get(ids[0])
	if row[2].A[1] != 43 || row[3].F != 21 || !row[4].Bool() {
		t.Fatalf("payload corrupted: %v", row)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}
