package engine

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Persistence snapshots the whole database with encoding/gob so the CLI can
// operate across process invocations. The snapshot format is explicit structs
// decoupled from the in-memory representation, so internal layout can evolve.
// Capturing (Snapshot) and serializing (WriteFile) are separate phases so a
// caller can hold its locks only for the in-memory copy and run the
// expensive gob encode + disk write without blocking writers.

// DBSnapshot is an immutable copy of a database's state, safe to serialize
// concurrently with further mutations of the source DB.
type DBSnapshot struct {
	Settings map[string]string
	Tables   []tableSnapshot
	// WalLSN is the last write-ahead-log sequence number whose effects the
	// snapshot contains; recovery replays the log strictly after it. Zero
	// for stores without a WAL (and for snapshots from older versions,
	// which gob decodes as the zero value).
	WalLSN uint64
}

type tableSnapshot struct {
	Name      string
	Cols      []Column
	PK        []string
	Indexes   [][]string
	Clustered []string
	Rows      []Row
}

// Snapshot captures the database state. Rows are copied cell-by-cell (array
// payloads stay shared — they are immutable once stored) so later in-place
// mutations like AlterColumnType cannot race a concurrent serialization.
func (db *DB) Snapshot() *DBSnapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := &DBSnapshot{
		Settings: make(map[string]string, len(db.settings)),
		WalLSN:   db.walLSN.Load(),
	}
	for k, v := range db.settings {
		snap.Settings[k] = v
	}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		ts := tableSnapshot{Name: t.name, Cols: append([]Column(nil), t.cols...)}
		for _, c := range t.pk {
			ts.PK = append(ts.PK, t.cols[c].Name)
		}
		for key := range t.indexes {
			ts.Indexes = append(ts.Indexes, splitIndexKey(key))
		}
		if t.cluster != "" {
			ts.Clustered = splitIndexKey(t.cluster)
		}
		ts.Rows = make([]Row, 0, t.NumRows())
		for p := 0; p < len(t.pages); p++ {
			for _, r := range t.page(p) {
				if r != nil {
					ts.Rows = append(ts.Rows, CloneRow(r))
				}
			}
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap
}

// WriteFile serializes the snapshot to path atomically (write to a temp
// file, then rename) and durably: the data is fsynced before the rename and
// the directory entry after it. Durability here is load-bearing — a WAL
// checkpoint truncates log segments on the strength of this file, so a
// snapshot that only reached the page cache would let a power failure
// destroy both copies of acknowledged commits. It returns the file's size.
func (snap *DBSnapshot) WriteFile(path string) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	cw := &countingWriter{w: f}
	w := bufio.NewWriter(cw)
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("engine: save: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return cw.n, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Save writes a snapshot of the database to path atomically.
func (db *DB) Save(path string) error {
	_, err := db.Snapshot().WriteFile(path)
	return err
}

// tableNamesLocked lists table names; caller holds at least a read lock.
func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	// Deterministic snapshots make tests and diffs stable.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func splitIndexKey(key string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return out
}

// EncodeTo gob-encodes the snapshot to w. This is the snapshot's transport
// form — the same bytes WriteFile persists, minus the file/fsync plumbing —
// so a replication bootstrap can stream it over a connection.
func (snap *DBSnapshot) EncodeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return bw.Flush()
}

// ErrCorruptSnapshot marks a snapshot file (or stream) that cannot be
// decoded: truncated writes, bit rot, or a file that was never a snapshot.
// Load and DecodeSnapshot wrap every decode failure with it so callers can
// distinguish "the file is damaged" (errors.Is) from I/O errors like a
// missing file, without parsing gob's error strings. No partially-decoded
// database ever escapes — a failed decode returns nil.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// DecodeSnapshot reads a gob-encoded snapshot from r (the inverse of
// EncodeTo, and the format Save writes to disk).
func DecodeSnapshot(r io.Reader) (*DBSnapshot, error) {
	var snap DBSnapshot
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %v: %w", err, ErrCorruptSnapshot)
	}
	return &snap, nil
}

// Load reads a snapshot produced by Save.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load: %w", err)
	}
	defer f.Close()
	snap, err := DecodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("engine: load %s: %w", filepath.Base(path), err)
	}
	return FromSnapshot(snap)
}

// FromSnapshot materializes a database from a snapshot: the restore half of
// Snapshot, shared by disk loads and replication bootstraps.
func FromSnapshot(snap *DBSnapshot) (*DB, error) {
	db := NewDB()
	db.walLSN.Store(snap.WalLSN)
	for k, v := range snap.Settings {
		db.settings[k] = v
	}
	for _, ts := range snap.Tables {
		t, err := db.CreateTable(ts.Name, ts.Cols)
		if err != nil {
			return nil, err
		}
		if err := t.InsertMany(ts.Rows); err != nil {
			return nil, err
		}
		for _, names := range ts.Indexes {
			if err := t.CreateIndex(names...); err != nil {
				return nil, err
			}
		}
		if len(ts.PK) > 0 {
			if err := t.SetPrimaryKey(ts.PK...); err != nil {
				return nil, err
			}
		}
		if len(ts.Clustered) > 0 {
			if err := t.Cluster(ts.Clustered...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
