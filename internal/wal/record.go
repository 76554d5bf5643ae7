// Package wal implements the store's write-ahead log: an append-only,
// length-prefixed, CRC-checksummed record log with segment rotation and
// configurable fsync policies. Every logical store mutation (dataset
// init/drop, commits including schema evolution and staged-table commits,
// partition optimization and maintenance, user registration) is encoded as
// one typed Record and appended before the mutation is acknowledged; crash
// recovery replays the log tail over the last engine snapshot.
//
// The log is torn-tail tolerant: opening a log validates every frame and
// truncates at the first bad length or CRC, so a crash mid-append (or a
// partially flushed page) costs at most the unacknowledged suffix.
//
// Lifecycle: Open acquires single-owner ownership of a segment directory
// (advisory flock on wal.lock) and repairs any torn tail; Append assigns the
// next LSN and persists one Record under the configured fsync Policy; Replay
// streams every record strictly after a snapshot's LSN watermark back to the
// caller; Truncate drops segments a successful checkpoint made obsolete; and
// Close fsyncs and releases the lock. LSNs are dense and store-wide, so
// "snapshot state ≡ replay of records 1..LSN" is the invariant recovery
// rests on (docs/ARCHITECTURE.md, "WAL-before-ack").
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
)

// Type enumerates the logical mutations the log records.
type Type uint8

// Record types, one per store mutation. TypeCheckpoint is an informational
// marker written after a successful checkpoint so operators can see
// checkpoint history when inspecting a log.
const (
	TypeInit Type = iota + 1
	TypeDrop
	TypeCommit
	TypeCommitSchema
	TypeCommitTable
	// TypeOptimize and TypeMaintain are read-only legacy: they logged a
	// repartitioning as the solver's inputs (Gamma, Mu, Naive, Weighted,
	// Freq) and recovery re-solved. Every repartitioning now logs its batches
	// as TypeOptimizeMigrate records; these two are still decoded and
	// replayed so older logs recover, and never written.
	TypeOptimize
	TypeMaintain
	TypeUserAdd
	TypeCheckpoint
	// Branch/merge records (codec version 2): branch registry mutations and
	// three-way merges. A merge that fast-forwards a branch head logs as a
	// branch advance; a true merge logs TypeMerge with the merged version's
	// membership bitmap for replay verification.
	TypeBranchCreate
	TypeBranchDelete
	TypeBranchAdvance
	TypeMerge
	// TypeOptimizeMigrate (codec version 3) logs one bounded batch of a
	// partition migration. The batch is anchor-addressed and deterministic
	// from state, so replaying the logged batch sequence over the same
	// starting state reproduces the live layout; a log cut mid-migration
	// replays to the consistent layout of the last logged batch boundary.
	TypeOptimizeMigrate
)

// String names the record type for status output and debugging.
func (t Type) String() string {
	switch t {
	case TypeInit:
		return "init"
	case TypeDrop:
		return "drop"
	case TypeCommit:
		return "commit"
	case TypeCommitSchema:
		return "commit-schema"
	case TypeCommitTable:
		return "commit-table"
	case TypeOptimize:
		return "optimize"
	case TypeMaintain:
		return "maintain"
	case TypeUserAdd:
		return "user-add"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeBranchCreate:
		return "branch-create"
	case TypeBranchDelete:
		return "branch-delete"
	case TypeBranchAdvance:
		return "branch-advance"
	case TypeMerge:
		return "merge"
	case TypeOptimizeMigrate:
		return "optimize-migrate"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one logged mutation. Which fields are meaningful depends on
// Type; unused fields stay zero and encode compactly. Members holds the
// committed version's record-membership bitmap (the rlist), serialized with
// the bitmap package's binary format; recovery uses it to verify that a
// replayed commit reconstructed exactly the acknowledged record set.
type Record struct {
	Type    Type
	Dataset string // CVD name (init/drop/commits/optimize/maintain)
	User    string // user ops and staged-table commits
	Table   string // staged table name (commit-table)
	Msg     string // commit message
	Model   string // data model kind (init)

	PrimaryKey []string        // init
	Cols       []engine.Column // init, schema-evolving and staged commits
	Rows       []engine.Row    // commit payload, in commit order
	Parents    []int64         // commit parents
	Version    int64           // version id the commit produced
	TimeNanos  int64           // commit timestamp (unix nanos), replayed verbatim

	// Legacy optimize/maintain fields, read from older logs only.
	Gamma    float64         // storage budget factor
	Mu       float64         // maintain tolerance (its check is not re-run on replay)
	Naive    bool            // rebuild-from-scratch migration (ignored on replay)
	Weighted bool            // optimize used a frequency map
	Freq     map[int64]int64 // weighted-optimize frequencies

	Members *bitmap.Bitmap // committed version's rlist (nil when n/a)

	// Branch/merge fields (codec version 2; zero on records decoded from
	// version-1 logs).
	Branch string // branch name (branch ops; merge when ours is a branch)
	Policy string // merge conflict-resolution policy
	Base   int64  // merge base version (0 = disjoint ancestry)

	// Partition-migration fields (codec version 3; zero on records decoded
	// from older logs). A TypeOptimizeMigrate record carries one batch:
	// BatchKind discriminates assign/preload/gc/drop-empty, Anchor is the
	// version whose current partition the batch targets (0 = create fresh),
	// MovedVersions lists the versions an assign remaps, and Members (the
	// shared field above) holds the batch's record set.
	BatchKind     uint8
	Anchor        int64
	MovedVersions []int64
}

// codecVersion is the first byte of every encoded record, so the payload
// format can evolve without breaking old logs. Version 2 appended the
// branch/merge fields and version 3 the partition-migration fields; version-1
// and version-2 records remain decodable (the appended fields read as zero).
const codecVersion = 3

// Encode serializes the record to a self-contained byte payload.
func (r *Record) Encode() []byte {
	e := &encoder{buf: make([]byte, 0, 256)}
	e.u8(codecVersion)
	e.u8(uint8(r.Type))
	e.str(r.Dataset)
	e.str(r.User)
	e.str(r.Table)
	e.str(r.Msg)
	e.str(r.Model)
	e.uvarint(uint64(len(r.PrimaryKey)))
	for _, k := range r.PrimaryKey {
		e.str(k)
	}
	e.uvarint(uint64(len(r.Cols)))
	for _, c := range r.Cols {
		e.str(c.Name)
		e.u8(uint8(c.Type))
	}
	e.uvarint(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		e.uvarint(uint64(len(row)))
		for _, v := range row {
			e.value(v)
		}
	}
	e.uvarint(uint64(len(r.Parents)))
	for _, p := range r.Parents {
		e.i64(p)
	}
	e.i64(r.Version)
	e.i64(r.TimeNanos)
	e.f64(r.Gamma)
	e.f64(r.Mu)
	e.bool(r.Naive)
	e.bool(r.Weighted)
	e.uvarint(uint64(len(r.Freq)))
	// Deterministic order so identical records encode to identical bytes.
	for _, k := range sortedKeys(r.Freq) {
		e.i64(k)
		e.i64(r.Freq[k])
	}
	if r.Members == nil {
		e.bool(false)
	} else {
		e.bool(true)
		b, _ := r.Members.MarshalBinary() // never fails
		e.bytes(b)
	}
	// Newer-version fields ride at the end so an older payload is an exact
	// prefix of the newer layout.
	e.str(r.Branch)
	e.str(r.Policy)
	e.i64(r.Base)
	// Version-3 fields.
	e.u8(r.BatchKind)
	e.i64(r.Anchor)
	e.uvarint(uint64(len(r.MovedVersions)))
	for _, v := range r.MovedVersions {
		e.i64(v)
	}
	return e.buf
}

// Decode restores a record encoded by Encode.
func Decode(data []byte) (*Record, error) {
	d := &decoder{buf: data}
	ver := d.u8()
	if ver < 1 || ver > codecVersion {
		return nil, fmt.Errorf("wal: unsupported record codec version %d", ver)
	}
	r := &Record{}
	r.Type = Type(d.u8())
	r.Dataset = d.str()
	r.User = d.str()
	r.Table = d.str()
	r.Msg = d.str()
	r.Model = d.str()
	if n := d.count(); n > 0 {
		r.PrimaryKey = make([]string, n)
		for i := range r.PrimaryKey {
			r.PrimaryKey[i] = d.str()
		}
	}
	if n := d.count(); n > 0 {
		r.Cols = make([]engine.Column, n)
		for i := range r.Cols {
			r.Cols[i] = engine.Column{Name: d.str(), Type: engine.Kind(d.u8())}
		}
	}
	if n := d.count(); n > 0 {
		r.Rows = make([]engine.Row, n)
		for i := range r.Rows {
			row := make(engine.Row, d.count())
			for j := range row {
				row[j] = d.value()
			}
			r.Rows[i] = row
		}
	}
	if n := d.count(); n > 0 {
		r.Parents = make([]int64, n)
		for i := range r.Parents {
			r.Parents[i] = d.i64()
		}
	}
	r.Version = d.i64()
	r.TimeNanos = d.i64()
	r.Gamma = d.f64()
	r.Mu = d.f64()
	r.Naive = d.bool()
	r.Weighted = d.bool()
	if n := d.count(); n > 0 {
		r.Freq = make(map[int64]int64, n)
		for i := 0; i < n; i++ {
			k := d.i64()
			r.Freq[k] = d.i64()
		}
	}
	if d.bool() {
		b, err := bitmap.FromBytes(d.blob())
		if err != nil && d.err == nil {
			d.err = err
		}
		r.Members = b
	}
	if ver >= 2 {
		r.Branch = d.str()
		r.Policy = d.str()
		r.Base = d.i64()
	}
	if ver >= 3 {
		r.BatchKind = d.u8()
		r.Anchor = d.i64()
		if n := d.count(); n > 0 {
			r.MovedVersions = make([]int64, n)
			for i := range r.MovedVersions {
				r.MovedVersions[i] = d.i64()
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("wal: decode %s record: %w", r.Type, d.err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("wal: decode %s record: %d trailing bytes", r.Type, len(d.buf)-d.pos)
	}
	return r, nil
}

func sortedKeys(m map[int64]int64) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// encoder appends little-endian primitives to a growing buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i64(v int64)      { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// value encodes one engine cell: kind byte then a kind-specific payload.
// Bitmap cells reuse the bitmap package's binary serialization.
func (e *encoder) value(v engine.Value) {
	e.u8(uint8(v.K))
	switch v.K {
	case engine.KindNull:
	case engine.KindInt, engine.KindBool:
		e.i64(v.I)
	case engine.KindFloat:
		e.f64(v.F)
	case engine.KindString:
		e.str(v.S)
	case engine.KindIntArray:
		e.uvarint(uint64(len(v.A)))
		for _, x := range v.A {
			e.i64(x)
		}
	case engine.KindBitmap:
		if v.B == nil {
			e.uvarint(0)
			return
		}
		b, _ := v.B.MarshalBinary()
		e.bytes(b)
	}
}

// decoder reads the encoder's output, accumulating the first error and
// returning zero values afterwards so call sites stay linear.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", msg, d.pos)
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.pos+n > len(d.buf) {
		d.fail("truncated")
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

// count reads a length prefix, bounding it by the bytes actually remaining
// so corrupt counts cannot trigger huge allocations.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)-d.pos) {
		d.fail("count exceeds payload")
		return 0
	}
	return int(v)
}

func (d *decoder) i64() int64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return int64(v)
}

func (d *decoder) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) blob() []byte {
	n := d.uvarint()
	if d.err != nil || !d.need(int(n)) {
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *decoder) str() string { return string(d.blob()) }

func (d *decoder) value() engine.Value {
	k := engine.Kind(d.u8())
	switch k {
	case engine.KindNull:
		return engine.NullValue()
	case engine.KindInt:
		return engine.Value{K: k, I: d.i64()}
	case engine.KindBool:
		return engine.Value{K: k, I: d.i64()}
	case engine.KindFloat:
		return engine.Value{K: k, F: d.f64()}
	case engine.KindString:
		return engine.Value{K: k, S: d.str()}
	case engine.KindIntArray:
		n := d.count()
		a := make([]int64, n)
		for i := range a {
			a[i] = d.i64()
		}
		return engine.Value{K: k, A: a}
	case engine.KindBitmap:
		b := d.blob()
		if len(b) == 0 {
			return engine.Value{K: k}
		}
		bm, err := bitmap.FromBytes(b)
		if err != nil && d.err == nil {
			d.err = err
		}
		return engine.Value{K: k, B: bm}
	}
	d.fail("unknown value kind")
	return engine.Value{}
}
