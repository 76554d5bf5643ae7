// Package engine implements the embedded relational database substrate that
// OrpheusDB bolts onto. It plays the role PostgreSQL plays in the paper: typed
// columns including an integer-array type, page-based heap tables, hash and
// ordered indexes, physical clustering, and the three join algorithms
// (hash, merge, index-nested-loop) whose behaviour Appendix D.1 of the paper
// analyzes. All page accesses are accounted so experiments can report an I/O
// cost alongside wall-clock time.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"orpheusdb/internal/bitmap"
)

// Kind enumerates the data types the engine supports.
type Kind uint8

// Supported kinds. IntArray is the array type the paper relies on for vlist
// and rlist attributes (PostgreSQL's int[]); Bitmap is its compressed
// replacement — a roaring-style set the versioning tables store membership
// in, combinable with O(chunk) set algebra instead of O(n) array scans. The
// numeric values are written into heap pages and WAL records: append new
// kinds, never renumber.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindIntArray
	KindBitmap
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "integer"
	case KindFloat:
		return "decimal"
	case KindString:
		return "string"
	case KindBool:
		return "boolean"
	case KindIntArray:
		return "integer[]"
	case KindBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromName parses a type name as used in CREATE TABLE statements.
func KindFromName(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "int", "integer", "int4", "int8", "bigint":
		return KindInt, nil
	case "float", "decimal", "double", "real", "numeric", "float8":
		return KindFloat, nil
	case "string", "text", "varchar", "char":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "int[]", "integer[]", "intarray":
		return KindIntArray, nil
	case "bitmap":
		return KindBitmap, nil
	}
	return KindNull, fmt.Errorf("engine: unknown type %q", name)
}

// MoreGeneral returns the more general of two kinds, following the paper's
// schema-evolution rule of widening conflicting attribute types (e.g.
// integer -> decimal -> string).
func MoreGeneral(a, b Kind) Kind {
	if a == b {
		return a
	}
	rank := func(k Kind) int {
		switch k {
		case KindNull:
			return 0
		case KindBool:
			return 1
		case KindInt:
			return 2
		case KindFloat:
			return 3
		case KindIntArray:
			return 4
		case KindBitmap:
			return 5
		case KindString:
			return 6
		}
		return 6
	}
	if rank(a) > rank(b) {
		return a
	}
	return b
}

// Value is a dynamically typed cell. The zero Value is NULL. Exactly one of
// the payload fields is meaningful, selected by K. Bool values are stored in
// I as 0/1. Bitmap payloads are shared, never copied: once a bitmap is
// stored in a row it is treated as immutable.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	A []int64
	B *bitmap.Bitmap
}

// Convenience constructors.

// NullValue returns the NULL value.
func NullValue() Value { return Value{} }

// IntValue returns an integer value.
func IntValue(i int64) Value { return Value{K: KindInt, I: i} }

// FloatValue returns a decimal value.
func FloatValue(f float64) Value { return Value{K: KindFloat, F: f} }

// StringValue returns a string value.
func StringValue(s string) Value { return Value{K: KindString, S: s} }

// BoolValue returns a boolean value.
func BoolValue(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// ArrayValue returns an integer-array value. The slice is not copied.
func ArrayValue(a []int64) Value { return Value{K: KindIntArray, A: a} }

// BitmapValue returns a compressed-bitmap value. The bitmap is not copied and
// must not be mutated afterwards. A nil bitmap stores as an empty set.
func BitmapValue(b *bitmap.Bitmap) Value {
	if b == nil {
		b = bitmap.New()
	}
	return Value{K: KindBitmap, B: b}
}

// BitmapFromSlice builds a bitmap value from record ids in any order.
func BitmapFromSlice(a []int64) Value { return BitmapValue(bitmap.FromSlice(a)) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool reports the truth value of v (false for non-bool kinds except nonzero
// ints).
func (v Value) Bool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	}
	return false
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindIntArray:
		var b strings.Builder
		b.WriteByte('{')
		for i, x := range v.A {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(x, 10))
		}
		b.WriteByte('}')
		return b.String()
	case KindBitmap:
		// Render like an array so SQL results read the same whichever
		// membership representation the model stores.
		var b strings.Builder
		b.WriteByte('{')
		first := true
		v.B.Iterate(func(x int64) bool {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(strconv.FormatInt(x, 10))
			return true
		})
		b.WriteByte('}')
		return b.String()
	}
	return "?"
}

// Compare orders two values. NULL sorts first. Mixed numeric kinds compare
// numerically; otherwise values of different kinds compare by kind.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	an := a.K == KindInt || a.K == KindFloat || a.K == KindBool
	bn := b.K == KindInt || b.K == KindFloat || b.K == KindBool
	if an && bn {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindIntArray:
		for i := 0; i < len(a.A) && i < len(b.A); i++ {
			if a.A[i] != b.A[i] {
				if a.A[i] < b.A[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(a.A) < len(b.A):
			return -1
		case len(a.A) > len(b.A):
			return 1
		}
		return 0
	case KindBitmap:
		return compareBitmaps(a.B, b.B)
	}
	return 0
}

// compareBitmaps orders two bitmap sets lexicographically over their
// ascending elements, shorter-prefix first — consistent with the IntArray
// ordering for sorted arrays.
func compareBitmaps(x, y *bitmap.Bitmap) int {
	xs, ys := x.ToSlice(), y.ToSlice()
	for i := 0; i < len(xs) && i < len(ys); i++ {
		if xs[i] != ys[i] {
			if xs[i] < ys[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(xs) < len(ys):
		return -1
	case len(xs) > len(ys):
		return 1
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// ArrayContains reports whether every element of sub appears in super,
// mirroring PostgreSQL's `sub <@ super` containment operator.
func ArrayContains(sub, super []int64) bool {
	if len(sub) == 0 {
		return true
	}
	if len(super) == 0 {
		return false
	}
	if len(super) <= 8 {
		for _, x := range sub {
			found := false
			for _, y := range super {
				if x == y {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	set := make(map[int64]struct{}, len(super))
	for _, y := range super {
		set[y] = struct{}{}
	}
	for _, x := range sub {
		if _, ok := set[x]; !ok {
			return false
		}
	}
	return true
}

// ArrayHas reports whether arr contains x. If arr is known to be sorted,
// callers should prefer SortedArrayHas.
func ArrayHas(arr []int64, x int64) bool {
	for _, y := range arr {
		if y == x {
			return true
		}
	}
	return false
}

// SortedArrayHas reports whether sorted arr contains x via binary search.
func SortedArrayHas(arr []int64, x int64) bool {
	i := sort.Search(len(arr), func(i int) bool { return arr[i] >= x })
	return i < len(arr) && arr[i] == x
}

// ArrayAppend returns arr with x appended (PostgreSQL's vlist = vlist || x).
// A new slice is returned; the input is not modified.
func ArrayAppend(arr []int64, x int64) []int64 {
	out := make([]int64, len(arr)+1)
	copy(out, arr)
	out[len(arr)] = x
	return out
}

// Row is a tuple of values.
type Row []Value

// CloneRow returns a deep-enough copy of r (array payloads shared; they are
// treated as immutable once stored).
func CloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// EncodeKey builds a composite key string from the given values, suitable for
// map keys and ordered indexes. The encoding is order-preserving per field
// for strings and unambiguous across fields.
func EncodeKey(vals ...Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteByte(byte(v.K))
		switch v.K {
		case KindInt, KindBool:
			// Fixed-width big-endian with sign bit flipped keeps
			// lexicographic order == numeric order.
			u := uint64(v.I) ^ (1 << 63)
			var buf [8]byte
			for j := 7; j >= 0; j-- {
				buf[j] = byte(u)
				u >>= 8
			}
			b.Write(buf[:])
		case KindFloat:
			b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		case KindString:
			b.WriteString(v.S)
		case KindIntArray:
			for j, x := range v.A {
				if j > 0 {
					b.WriteByte(1)
				}
				b.WriteString(strconv.FormatInt(x, 10))
			}
		case KindBitmap:
			// Length-prefix the payload: serialized bitmaps may contain
			// the 0x00 field separator, and the prefix keeps the composite
			// encoding unambiguous across fields.
			data, _ := v.B.MarshalBinary()
			b.WriteString(strconv.Itoa(len(data)))
			b.WriteByte(':')
			b.Write(data)
		}
	}
	return b.String()
}
