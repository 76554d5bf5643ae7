// Package core implements the OrpheusDB versioning layer: collaborative
// versioned datasets (CVDs) stored under one data model, the partitioned
// split-by-rlist representation of Section 4 (whose one-partition case is
// split-by-rlist), the record/version/provenance managers, multi-version
// checkout with primary-key precedence, commit with the
// no-cross-version-diff rule, diff, and schema evolution. It sits as middleware over the internal/engine database, which —
// like PostgreSQL in the paper — is completely unaware of versioning.
package core

import (
	"strconv"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// Record pairs an immutable record id with its data attributes (data columns
// only; no versioning attributes).
type Record struct {
	RID  vgraph.RecordID
	Data engine.Row
}

// RecordHash is a 128-bit content hash of a record's data attributes. Records
// within a CVD are immutable, so equal hashes identify "the same" record for
// the no-cross-version-diff commit rule.
type RecordHash struct {
	H1, H2 uint64
}

// FNV-1/FNV-1a 64-bit parameters (hash/fnv's).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rowHasher runs FNV-1a (a) and FNV-1 (b) side by side over one byte stream.
type rowHasher struct{ a, b uint64 }

func (h *rowHasher) byte(c byte) {
	h.a = (h.a ^ uint64(c)) * fnvPrime64
	h.b = (h.b * fnvPrime64) ^ uint64(c)
}

func (h *rowHasher) bytes(p []byte) {
	for _, c := range p {
		h.byte(c)
	}
}

func (h *rowHasher) string(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// HashRow computes the content hash of a row's data attributes: H1 is
// FNV-1a over engine.EncodeKey(r...), H2 is FNV-1 over 0x5f followed by the
// same bytes. The key bytes are streamed into the hash state instead of
// being built, so hashing allocates nothing (bitmap cells, which no data
// table holds, excepted); the stored h1/h2 columns and replay matching
// depend on the output staying byte-identical.
func HashRow(r engine.Row) RecordHash {
	h := rowHasher{a: fnvOffset64, b: fnvOffset64}
	h.b = h.b*fnvPrime64 ^ 0x5f // H2's one-byte prefix
	var buf [32]byte
	for i, v := range r {
		if i > 0 {
			h.byte(0)
		}
		h.byte(byte(v.K))
		switch v.K {
		case engine.KindInt, engine.KindBool:
			u := uint64(v.I) ^ (1 << 63)
			for s := 56; s >= 0; s -= 8 {
				h.byte(byte(u >> s))
			}
		case engine.KindFloat:
			h.bytes(strconv.AppendFloat(buf[:0], v.F, 'g', -1, 64))
		case engine.KindString:
			h.string(v.S)
		case engine.KindIntArray:
			for j, x := range v.A {
				if j > 0 {
					h.byte(1)
				}
				h.bytes(strconv.AppendInt(buf[:0], x, 10))
			}
		case engine.KindBitmap:
			data, _ := v.B.MarshalBinary()
			h.bytes(strconv.AppendInt(buf[:0], int64(len(data)), 10))
			h.byte(':')
			h.bytes(data)
		}
	}
	return RecordHash{H1: h.a, H2: h.b}
}

// HashRows hashes every row. A commit calls it before taking any lock, so
// the CPU it costs is never spent while readers wait.
func HashRows(rows []engine.Row) []RecordHash {
	out := make([]RecordHash, len(rows))
	for i, r := range rows {
		out[i] = HashRow(r)
	}
	return out
}
