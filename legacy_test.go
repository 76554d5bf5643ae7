package orpheusdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/wal"
)

// The fixtures under testdata/legacy were written by the release before
// every dataset was partitioned: one memory-backend snapshot and one
// disk-backend store, each holding a split-by-rlist dataset "legacy" with
// five versions (a root, two branches, their merge and a commit that adds a
// column), plus each version's row fingerprint.

type legacyVersion struct {
	Version     int64  `json:"version"`
	Rows        int    `json:"rows"`
	Fingerprint string `json:"fingerprint"`
}

// rowsFingerprint is the fixture's fingerprint: SHA-256 over the rows'
// engine keys, sorted, each length-prefixed on its own line.
func rowsFingerprint(rows []Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = engine.EncodeKey(r...)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s\n", len(k), k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkLegacyVersions checks every fixture version out of d and compares it
// with the recorded fingerprint.
func checkLegacyVersions(t *testing.T, d *Dataset, want []legacyVersion) {
	t.Helper()
	for _, v := range want {
		rows, err := d.Checkout(VersionID(v.Version))
		if err != nil {
			t.Fatalf("v%d: %v", v.Version, err)
		}
		if len(rows) != v.Rows || rowsFingerprint(rows) != v.Fingerprint {
			t.Fatalf("v%d: %d rows, fingerprint %s; want %d rows, %s", v.Version, len(rows), rowsFingerprint(rows), v.Rows, v.Fingerprint)
		}
	}
}

// rawCatalog opens the store file with the bare engine and returns each
// dataset's catalog model and the table names.
func rawCatalog(t *testing.T, path string, backend BackendKind) (map[string]string, []string) {
	t.Helper()
	var db *engine.DB
	var err error
	if backend == BackendDisk {
		db, err = engine.OpenDisk(path, engine.DiskOptions{})
	} else {
		db, err = engine.Load(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseBackend()
	models := map[string]string{}
	db.Table("__orpheus_cvds").Scan(func(_ engine.RowID, row engine.Row) bool {
		models[row[0].S] = row[1].S
		return true
	})
	return models, db.TableNames()
}

// TestLegacySplitByRlistStoresOpen: on both backends, a split-by-rlist store
// written by the previous release opens as a one-partition dataset whose
// every version checks out to the recorded rows; it then commits and
// repartitions, and once checkpointed its catalog and tables are in the
// current layout, so reopening has nothing left to upgrade.
func TestLegacySplitByRlistStoresOpen(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "split_rlist_versions.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixture map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []BackendKind{BackendMemory, BackendDisk} {
		t.Run(string(backend), func(t *testing.T) {
			var want []legacyVersion
			if err := json.Unmarshal(fixture[string(backend)], &want); err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(filepath.Join("testdata", "legacy", "split_rlist_"+string(backend)+".odb"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.odb")
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
			if models, _ := rawCatalog(t, path, backend); models["legacy"] != "split-by-rlist" {
				t.Fatalf("fixture catalog: %v", models)
			}

			s, err := OpenStoreWithOptions(path, StoreOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.Dataset("legacy")
			if err != nil {
				t.Fatal(err)
			}
			checkLegacyVersions(t, d, want)
			if st, _ := d.PartitionStatus(); len(st.Partitions) != 1 || st.Partitions[0].Versions != len(want) {
				t.Fatalf("upgraded layout: %+v", st)
			}
			latest := d.LatestVersion()
			rows, err := d.Checkout(latest)
			if err != nil {
				t.Fatal(err)
			}
			next, err := d.Commit(rows[1:], []VersionID{latest}, "after upgrade")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Optimize(1.5); err != nil {
				t.Fatal(err)
			}
			checkLegacyVersions(t, d, want)
			nextRows := sortedCheckout(t, d, next)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			models, tables := rawCatalog(t, path, backend)
			if models["legacy"] != string(PartitionedRlist) {
				t.Fatalf("checkpointed catalog: %v", models)
			}
			for _, name := range tables {
				if strings.HasPrefix(name, "legacy_rl_") {
					t.Fatalf("checkpoint kept legacy table %s", name)
				}
			}

			s, err = OpenStoreWithOptions(path, StoreOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			d, err = s.Dataset("legacy")
			if err != nil {
				t.Fatal(err)
			}
			checkLegacyVersions(t, d, want)
			if got := sortedCheckout(t, d, next); fmt.Sprint(got) != fmt.Sprint(nextRows) {
				t.Fatalf("post-upgrade version %d changed across reopen", next)
			}
		})
	}
}

// TestWALLegacyInitRecords: a log whose init records name the former
// default model replays as the partitioned model; one whose init names a
// paper model sets that dataset aside — it does not open, with an error
// naming the model — while the rest of the log replays. The set-aside
// dataset is a catalog row: it survives a checkpoint, List names it, and a
// logged drop removes it.
func TestWALLegacyInitRecords(t *testing.T) {
	src := t.TempDir()
	s := openWALStore(t, src, FsyncOff)
	want := map[string][]string{}
	for _, name := range []string{"old", "paper", "current"} {
		d, err := s.Init(name, protCols(), InitOptions{PrimaryKey: []string{"id"}})
		if err != nil {
			t.Fatal(err)
		}
		vids := growChain(t, d, 4, 3)
		want[name] = sortedCheckout(t, d, vids[len(vids)-1])
	}
	crash(s)

	legacyModel := map[string]string{"old": "split-by-rlist", "paper": "combined-table"}
	in, err := wal.Open(wal.Options{Dir: filepath.Join(src, "store.odb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	dir := t.TempDir()
	out, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "store.odb.wal")})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Replay(0, func(_ uint64, rec *wal.Record) error {
		if m, ok := legacyModel[rec.Dataset]; ok && rec.Type == wal.TypeInit {
			rec.Model = m
		}
		_, err := out.Append(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	r := openWALStore(t, dir, FsyncOff)
	defer func() { crash(r) }()
	for _, name := range []string{"old", "current"} {
		d, err := r.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedCheckout(t, d, d.LatestVersion()); fmt.Sprint(got) != fmt.Sprint(want[name]) {
			t.Fatalf("%s: latest version differs after replay", name)
		}
		if _, err := d.Optimize(2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	setAside := func(when string) {
		t.Helper()
		_, err := r.Dataset("paper")
		if !errors.Is(err, ErrUnservedModel) || !strings.Contains(err.Error(), "combined-table") {
			t.Fatalf("%s: paper-model dataset: err = %v, want ErrUnservedModel naming combined-table", when, err)
		}
		if names := r.List(); fmt.Sprint(names) != "[current old paper]" {
			t.Fatalf("%s: List = %v", when, names)
		}
	}
	setAside("after replay")
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(r)
	r = openWALStore(t, dir, FsyncOff)
	setAside("after checkpoint and reopen")

	// A follower bootstrapped now holds the row too, and applies the drop.
	follower, err := NewStoreFromSnapshot(r.ReplicationSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	from := r.WALStatus().AppliedLSN
	if err := r.Drop("paper"); err != nil {
		t.Fatal(err)
	}
	it, err := r.OpenWALStream(from)
	if err != nil {
		t.Fatal(err)
	}
	lsn, rec, _, err := it.Next()
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(lsn, rec); err != nil {
		t.Fatalf("follower applying the drop: %v", err)
	}
	if names := follower.List(); fmt.Sprint(names) != "[current old]" {
		t.Fatalf("follower after the drop: List = %v", names)
	}
	crash(r)
	r = openWALStore(t, dir, FsyncOff)
	if names := r.List(); fmt.Sprint(names) != "[current old]" {
		t.Fatalf("after the logged drop replays: List = %v", names)
	}
	// The name is free again once dropped.
	if _, err := r.Init("paper", protCols(), InitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dataset("paper"); err != nil {
		t.Fatal(err)
	}
}

// TestPaperModelCatalogEntry: a catalog row naming a paper model keeps only
// that dataset from opening; the store and its other datasets open, and the
// dataset listing still names it.
func TestPaperModelCatalogEntry(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"paper", "ok"} {
		d, err := s.Init(name, protCols(), InitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, d, nil, "v1", 1, 2)
	}
	cat := s.DB().Table("__orpheus_cvds")
	cat.Scan(func(id engine.RowID, row engine.Row) bool {
		if row[0].S == "paper" {
			nr := engine.CloneRow(row)
			nr[1] = engine.StringValue("split-by-vlist")
			if err := cat.Update(id, nr); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	path := filepath.Join(t.TempDir(), "store.odb")
	if err := s.DB().Save(path); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStoreWithOptions(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dataset("paper"); !errors.Is(err, ErrUnservedModel) || !strings.Contains(err.Error(), "split-by-vlist") {
		t.Fatalf("paper-model dataset: err = %v, want ErrUnservedModel naming split-by-vlist", err)
	}
	d, err := r.Dataset("ok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkout(1); err != nil {
		t.Fatal(err)
	}
	if names := r.List(); fmt.Sprint(names) != "[ok paper]" {
		t.Fatalf("List = %v", names)
	}
	// Dropping it removes the catalog row.
	if err := r.Drop("paper"); err != nil {
		t.Fatal(err)
	}
	if names := r.List(); fmt.Sprint(names) != "[ok]" {
		t.Fatalf("after drop: List = %v", names)
	}
}
