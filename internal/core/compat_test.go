package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// rewriteMembershipAsArrays converts every membership cell of table name
// back to the pre-bitmap int[] representation, simulating a snapshot written
// before the bitmap refactor.
func rewriteMembershipAsArrays(t *testing.T, db *engine.DB, name string, col int) {
	t.Helper()
	tab := db.Table(name)
	if tab == nil {
		t.Fatalf("no table %s", name)
	}
	type upd struct {
		id  engine.RowID
		row engine.Row
	}
	var updates []upd
	tab.Scan(func(id engine.RowID, row engine.Row) bool {
		if row[col].K == engine.KindBitmap {
			nr := engine.CloneRow(row)
			nr[col] = engine.ArrayValue(row[col].B.ToSlice())
			updates = append(updates, upd{id, nr})
		}
		return true
	})
	for _, u := range updates {
		if err := tab.Update(u.id, u.row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreBitmapSnapshotCompat verifies that stores written before the bitmap
// membership representation (rlists/vlists as int[]) keep reading and
// committing correctly: every read site widens arrays to bitmaps.
func TestPreBitmapSnapshotCompat(t *testing.T) {
	t.Run("split-by-rlist", func(t *testing.T) {
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := c.Commit(context.Background(), []engine.Row{
			protRow("A", "B", 1, 2, 3),
			protRow("C", "D", 4, 5, 6),
		}, nil, "root")
		if err != nil {
			t.Fatal(err)
		}
		downgradeToSplitByRlist(t, db, "d")
		rewriteMembershipAsArrays(t, db, "d_rl_version", 1)
		rewriteMembershipAsArrays(t, db, "d__rlists", 1)

		if err := UpgradeLegacyLayouts(db); err != nil {
			t.Fatal(err)
		}
		re, err := Open(db, "d")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := re.Checkout(v1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("checkout after array rewrite: %d rows, want 2", len(rows))
		}
		// Committing on top of the legacy rlists must keep the old membership.
		v2, err := re.Commit(context.Background(), []engine.Row{
			protRow("A", "B", 1, 2, 3),
			protRow("E", "F", 7, 8, 9),
		}, []vgraph.VersionID{v1}, "child")
		if err != nil {
			t.Fatal(err)
		}
		for v, want := range map[vgraph.VersionID]int{v1: 2, v2: 2} {
			if rows, err := re.Checkout(v); err != nil || len(rows) != want {
				t.Fatalf("v%d checkout after legacy commit: %d rows, %v; want %d", v, len(rows), err, want)
			}
		}
	})

	t.Run("partitioned-rlist", func(t *testing.T) {
		db := engine.NewDB()
		c, err := Init(db, "d", protCols(), InitOptions{Model: PartitionedRlistModel})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := c.Commit(context.Background(), []engine.Row{
			protRow("A", "B", 1, 2, 3),
			protRow("C", "D", 4, 5, 6),
		}, nil, "root")
		if err != nil {
			t.Fatal(err)
		}
		rewriteMembershipAsArrays(t, db, "d_part0_version", 1)
		rewriteMembershipAsArrays(t, db, "d__rlists", 1)

		re, err := Open(db, "d")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := re.Checkout(v1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("partitioned checkout after array rewrite: %d rows, want 2", len(rows))
		}
	})
}

// downgradeToSplitByRlist rewrites a one-partition CVD into the layout a
// split-by-rlist CVD had before every CVD was partitioned: partition 0's
// tables under their old names, no partition map, the old catalog model.
func downgradeToSplitByRlist(t *testing.T, db *engine.DB, name string) {
	t.Helper()
	for _, r := range [][2]string{
		{name + "_part0_data", name + "_rl_data"},
		{name + "_part0_version", name + "_rl_version"},
	} {
		if err := db.RenameTable(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropTable(name + "__partmap"); err != nil {
		t.Fatal(err)
	}
	setCatalogModel(t, db, name, legacySplitByRlist)
}

// setCatalogModel overwrites the model a CVD's catalog row names.
func setCatalogModel(t *testing.T, db *engine.DB, name, model string) {
	t.Helper()
	cat := db.Table(catalogTable)
	var id engine.RowID
	var row engine.Row
	cat.Scan(func(rid engine.RowID, r engine.Row) bool {
		if r[0].S == name {
			id, row = rid, engine.CloneRow(r)
		}
		return true
	})
	if row == nil {
		t.Fatalf("no catalog row for %s", name)
	}
	row[1] = engine.StringValue(model)
	if err := cat.Update(id, row); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeLegacyLayouts: a split-by-rlist CVD becomes a one-partition
// CVD by renames and a partition map alone; a second run changes nothing;
// a CVD under a paper model stays in the catalog but does not open, with an
// error naming its model, and does not stop the upgrade of the others.
func TestUpgradeLegacyLayouts(t *testing.T) {
	db := engine.NewDB()
	var vids []vgraph.VersionID
	for _, name := range []string{"old", "paper", "new"} {
		c, err := Init(db, name, protCols(), InitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3), protRow("C", "D", 4, 5, 6)}, nil, "v1")
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3)}, []vgraph.VersionID{v1}, "v2")
		if err != nil {
			t.Fatal(err)
		}
		vids = []vgraph.VersionID{v1, v2}
	}
	downgradeToSplitByRlist(t, db, "old")
	setCatalogModel(t, db, "paper", "delta-based")
	data := db.Table("old_rl_data")

	for run := 0; run < 2; run++ {
		if err := UpgradeLegacyLayouts(db); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if db.Table("old_part0_data") != data || db.HasTable("old_rl_data") || db.HasTable("old_rl_version") {
			t.Fatalf("run %d: tables %v", run, db.TableNames())
		}
		if got := catalogModel(db, "old"); got != string(PartitionedRlistModel) {
			t.Fatalf("run %d: catalog model %q", run, got)
		}
		if n := db.Table("old__partmap").NumRows(); n != len(vids) {
			t.Fatalf("run %d: %d partition-map rows, want %d", run, n, len(vids))
		}
	}
	old, err := Open(db, "old")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 1} {
		if rows, err := old.Checkout(vids[i]); err != nil || len(rows) != want {
			t.Fatalf("v%d: %d rows, %v; want %d", vids[i], len(rows), err, want)
		}
	}
	if st := old.PartitionStatus(); len(st.Partitions) != 1 || st.Partitions[0].Versions != len(vids) {
		t.Fatalf("upgraded layout: %+v", st)
	}
	_, err = Open(db, "paper")
	if !errors.Is(err, ErrUnservedModel) || !strings.Contains(err.Error(), "delta-based") {
		t.Fatalf("paper-model CVD: err = %v, want ErrUnservedModel naming delta-based", err)
	}
	if got := catalogModel(db, "paper"); got != "delta-based" {
		t.Fatalf("paper-model catalog row rewritten to %q", got)
	}
	if _, err := Open(db, "new"); err != nil {
		t.Fatal(err)
	}
}
