package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"unsafe"

	"orpheusdb/internal/bitmap"
)

// The page codec: how one heap page (a slot slice, nil = tombstone) becomes
// the value stored under a page key, and back. The layout is walked directly
// — no reflection, no per-page type compilation — because a cold checkout
// pays for this decode once per faulted page.
//
//	byte 0      pageMagic (0xB5)
//	byte 1      pageVersion (1)
//	uvarint     n      slot count, ≤ RowsPerPage
//	uvarint     width  cells per live row (0 when no slot is live)
//	⌈n/8⌉ bytes liveness bitmap, slot i is bit i%8 of byte i/8
//	then, for every live slot in slot order, width cells:
//	  byte      Kind
//	  payload   null:     nothing
//	            int/bool: zig-zag varint
//	            float:    8 bytes, IEEE-754 bits little-endian
//	            string:   uvarint length, bytes
//	            int[]:    uvarint count, count × zig-zag varint
//	            bitmap:   uvarint length, ORBM bytes (length 0 = nil bitmap)
//
// A gob stream — the format pages had before this one — starts with a
// message length: one byte below 0x80, or a byte-count marker 0xF8..0xFF.
// pageMagic lies between the two ranges, so the first byte alone tells the
// formats apart, and decodePage hands the old one to decodeLegacyPage.
const (
	pageMagic   = 0xB5
	pageVersion = 1

	// No gob stream starts with a byte in [pageMagicMin, pageMagicMax].
	pageMagicMin, pageMagicMax = 0x80, 0xF7
)

// ErrCorruptPage marks page bytes the codec cannot read: truncated, a count
// or length that exceeds the bytes remaining, an unknown kind, version or
// leading byte. Every decodePage failure matches it with errors.Is.
var ErrCorruptPage = errors.New("engine: corrupt page")

// corruptPage is a decode failure at byte offset off.
type corruptPage struct {
	what string
	off  int
}

func (e *corruptPage) Error() string {
	return "engine: corrupt page: " + e.what + " at byte " + strconv.Itoa(e.off)
}

func (e *corruptPage) Is(target error) bool { return target == ErrCorruptPage }

// encodePage appends the page layout of slots to dst. It fails only on a
// page no table can hold: more than RowsPerPage slots, live rows of
// different widths, or a cell of unknown kind.
func encodePage(dst []byte, slots []Row) ([]byte, error) {
	if len(slots) > RowsPerPage {
		return dst, errors.New("engine: encode page: " + strconv.Itoa(len(slots)) + " slots exceed the page capacity")
	}
	width := 0
	for _, r := range slots {
		if r != nil {
			width = len(r)
			break
		}
	}
	dst = append(dst, pageMagic, pageVersion)
	dst = binary.AppendUvarint(dst, uint64(len(slots)))
	dst = binary.AppendUvarint(dst, uint64(width))
	live := len(dst)
	dst = append(dst, make([]byte, (len(slots)+7)/8)...)
	for i, r := range slots {
		if r == nil {
			continue
		}
		if len(r) != width {
			return dst, errors.New("engine: encode page: rows of " + strconv.Itoa(width) + " and " + strconv.Itoa(len(r)) + " cells on one page")
		}
		dst[live+i/8] |= 1 << (i % 8)
		for j := range r {
			v := &r[j]
			dst = append(dst, byte(v.K))
			switch v.K {
			case KindNull:
			case KindInt, KindBool:
				dst = binary.AppendVarint(dst, v.I)
			case KindFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
			case KindString:
				dst = binary.AppendUvarint(dst, uint64(len(v.S)))
				dst = append(dst, v.S...)
			case KindIntArray:
				dst = binary.AppendUvarint(dst, uint64(len(v.A)))
				for _, x := range v.A {
					dst = binary.AppendVarint(dst, x)
				}
			case KindBitmap:
				if v.B == nil {
					dst = append(dst, 0)
					break
				}
				raw, err := v.B.MarshalBinary()
				if err != nil {
					return dst, err
				}
				dst = binary.AppendUvarint(dst, uint64(len(raw)))
				dst = append(dst, raw...)
			default:
				return dst, errors.New("engine: encode page: unknown kind " + strconv.Itoa(int(v.K)))
			}
		}
	}
	return dst, nil
}

// uvarintAt reads a uvarint at buf[pos:], pos ≤ len(buf), and returns it
// with its length; the length is ≤ 0 when there is none to read. One-byte
// values are nearly all of them — small ints, string lengths, counts — and
// take the inlined path.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	if pos < len(buf) && buf[pos] < 0x80 {
		return uint64(buf[pos]), 1
	}
	return binary.Uvarint(buf[pos:])
}

// decodeCells fills cells from buf[pos:] and returns the position after the
// last one. A string is not copied: it points at its bytes in buf. Every
// length and count is checked against the bytes remaining before anything is
// sized by it.
func decodeCells(buf []byte, pos int, cells []Value) (int, error) {
	for i := range cells {
		v := &cells[i]
		if pos >= len(buf) {
			return pos, &corruptPage{"truncated", pos}
		}
		v.K = Kind(buf[pos])
		pos++
		if v.K == KindNull {
			continue
		}
		if v.K == KindFloat {
			if len(buf)-pos < 8 {
				return pos, &corruptPage{"truncated float", pos}
			}
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
			continue
		}
		// Every other payload starts with a varint: the value itself, or
		// the length or count of what follows.
		u, n := uvarintAt(buf, pos)
		if n <= 0 {
			return pos, &corruptPage{"bad varint", pos}
		}
		pos += n
		rest := uint64(len(buf) - pos)
		switch v.K {
		case KindInt, KindBool:
			v.I = unzigzag(u)
		case KindString:
			if u > rest {
				return pos, &corruptPage{"string exceeds page", pos}
			}
			if u > 0 {
				v.S = unsafe.String(&buf[pos], int(u))
				pos += int(u)
			}
		case KindIntArray:
			// Each element is at least one byte.
			if u > rest {
				return pos, &corruptPage{"array count exceeds page", pos}
			}
			if u > 0 {
				v.A = make([]int64, u)
			}
			for j := range v.A {
				x, n := uvarintAt(buf, pos)
				if n <= 0 {
					return pos, &corruptPage{"bad varint", pos}
				}
				pos += n
				v.A[j] = unzigzag(x)
			}
		case KindBitmap:
			if u > rest {
				return pos, &corruptPage{"bitmap exceeds page", pos}
			}
			if u > 0 {
				bm, err := bitmap.FromBytes(buf[pos : pos+int(u)])
				if err != nil {
					return pos, &corruptPage{err.Error(), pos}
				}
				v.B = bm
				pos += int(u)
			}
		default:
			return pos, &corruptPage{"unknown kind", pos - n - 1}
		}
	}
	return pos, nil
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodePage is the inverse of encodePage: the slots of the page, tombstones
// nil, with room to append up to RowsPerPage. It takes data over: the page's
// strings point into it, so the caller must not write to it again.
//
// Two allocations hold a page of numbers and strings — the slot slice and one
// slab of cells the live rows are cut from (capped, so appending to a row
// copies it out instead of running into its neighbour) — plus what array and
// bitmap cells own. A row that outlives its page, in the checkout cache or a
// query result, therefore keeps the page's slab and bytes alive with it; the
// alternative, a Row and a string per live row, decoded a third slower and
// left checkout_disk's cold p50 at 1.4 ms where the slab reaches 1.1. Neither
// allocation is sized before the input has been checked to be long enough to
// fill it.
//
// Bytes that begin like a gob stream are a page written before this layout
// existed and decode through decodeLegacyPage.
func decodePage(data []byte) ([]Row, error) {
	if isLegacyPage(data) {
		return decodeLegacyPage(data)
	}
	if len(data) < 2 || data[0] != pageMagic || data[1] != pageVersion {
		return nil, &corruptPage{"not a page header", 0}
	}
	pos := 2
	n, k := uvarintAt(data, pos)
	if k <= 0 || n > RowsPerPage {
		return nil, &corruptPage{"bad slot count", pos}
	}
	pos += k
	width, k := uvarintAt(data, pos)
	if k <= 0 {
		return nil, &corruptPage{"bad row width", pos}
	}
	pos += k
	if uint64(len(data)-pos) < (n+7)/8 {
		return nil, &corruptPage{"truncated liveness bitmap", pos}
	}
	live := data[pos : pos+int(n+7)/8]
	pos += len(live)
	nlive := uint64(0)
	for i := 0; i < int(n); i++ {
		nlive += uint64(live[i/8] >> (i % 8) & 1)
	}
	// A cell is at least its kind byte.
	if rest := uint64(len(data) - pos); width > rest || nlive*width > rest {
		return nil, &corruptPage{"rows exceed page", pos}
	}
	cells := make([]Value, nlive*width)
	pos, err := decodeCells(data, pos, cells)
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, &corruptPage{"trailing bytes", pos}
	}
	slots := make([]Row, n, RowsPerPage)
	for i := range slots {
		if live[i/8]>>(i%8)&1 != 0 {
			slots[i] = cells[:width:width]
			cells = cells[width:]
		}
	}
	return slots, nil
}

// isLegacyPage reports whether stored page bytes are a gob stream, the
// format pages had before this layout.
func isLegacyPage(data []byte) bool {
	return len(data) > 0 && (data[0] < pageMagicMin || data[0] > pageMagicMax)
}
