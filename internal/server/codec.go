package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/engine"
)

// JSON codecs for the engine's dynamically typed cells. Values map onto
// natural JSON: NULL <-> null, integers and decimals <-> numbers, strings <->
// strings, booleans <-> booleans, and integer arrays <-> arrays of numbers.
// Encoding needs no schema (the Value carries its kind); decoding is driven
// by the destination column's declared kind, so a commit body can say `3`
// for both an integer and a decimal column.

// columnJSON is the wire form of a schema attribute.
type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func encodeColumns(cols []orpheusdb.Column) []columnJSON {
	out := make([]columnJSON, len(cols))
	for i, c := range cols {
		out[i] = columnJSON{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

func decodeColumns(cols []columnJSON) ([]orpheusdb.Column, error) {
	out := make([]orpheusdb.Column, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("column %d: missing name", i)
		}
		k, err := engine.KindFromName(c.Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", c.Name, err)
		}
		out[i] = orpheusdb.Column{Name: c.Name, Type: k}
	}
	return out, nil
}

// Row encoding. Every row-bearing response is written by hand into one
// pooled buffer: the envelope keys in alphabetical order and every cell in
// exactly the bytes encoding/json would produce for the value (see the HTTP
// byte-compatibility invariant in docs/ARCHITECTURE.md), so a body is
// indistinguishable from json.NewEncoder(w).Encode(map[string]any{...}).
// codec_ref_test.go keeps that reflective encoder as the reference the
// append-style one is diffed against.

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: `"` and `\` backslash-escaped, control characters as
// \b \f \n \r \t or \u00XX, `<` `>` `&` as \u00XX, U+2028/U+2029 as \u202X, and
// each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f in encoding/json's number form: the shortest decimal
// that round-trips, exponent notation only below 1e-6 or from 1e21 up (the
// ES6 rule), and a two-digit negative exponent trimmed of its leading zero.
// NaN and the infinities have no JSON form; they encode as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendInts appends a JSON array of integers ([] for a nil slice).
func appendInts[T ~int | ~int64](b []byte, a []T) []byte {
	b = append(b, '[')
	for i, x := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendValue appends one cell. The Value carries its kind, so encoding
// needs no schema.
func appendValue(b []byte, v *orpheusdb.Value) []byte {
	switch v.K {
	case engine.KindNull:
		return append(b, "null"...)
	case engine.KindInt:
		return strconv.AppendInt(b, v.I, 10)
	case engine.KindFloat:
		return appendFloat(b, v.F)
	case engine.KindString:
		return appendString(b, v.S)
	case engine.KindBool:
		return strconv.AppendBool(b, v.I != 0)
	case engine.KindIntArray:
		return appendInts(b, v.A)
	case engine.KindBitmap:
		// Bitmap membership encodes as the sorted element array, so clients
		// see the same shape whichever representation the model stores.
		return appendInts(b, v.B.ToSlice())
	}
	return appendString(b, v.String())
}

func appendRow(b []byte, r orpheusdb.Row) []byte {
	b = append(b, '[')
	for i := range r {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendValue(b, &r[i])
	}
	return append(b, ']')
}

func appendRows(b []byte, rows []orpheusdb.Row) []byte {
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, r)
	}
	return append(b, ']')
}

// appendColumns appends the wire form of a schema, as encodeColumns marshals.
func appendColumns(b []byte, cols []orpheusdb.Column) []byte {
	b = append(b, '[')
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendString(b, c.Name)
		b = append(b, `,"type":`...)
		b = appendString(b, c.Type.String())
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// flushThreshold is the buffered size past which a rowStream hands its
// buffer to the ResponseWriter; every flush is an HTTP chunk and a write to
// the socket. Measured over loopback on a 1000-row (58 KB) and a 20000-row
// (1.2 MB) checkout of the benchmark's schema: 4 KB 375 us / 7.5 ms, 16 KB
// 316 us / 5.3 ms, 32 KB 316 us / 4.7 ms, 64 KB 302 us / 4.4 ms, and 128 KB
// and 256 KB no faster than 64 KB.
const flushThreshold = 64 << 10

// rowStream writes one row-bearing response: the handler appends the
// envelope to buf, streams row sets through rows, and calls finish. The
// buffer is flushed to the client whenever it passes flushThreshold, so a
// response of any size costs one buffer beyond the rows themselves. After a
// failed write or once the request's context is done, the stream stops
// encoding rows and discards what follows.
type rowStream struct {
	w   http.ResponseWriter
	ctx context.Context
	buf []byte
	n   int64 // bytes handed to w so far
	err error
}

// rowStreams recycles streams with their buffers.
var rowStreams = sync.Pool{New: func() any {
	return &rowStream{buf: make([]byte, 0, flushThreshold+flushThreshold/8)}
}}

// newRowStream sends the response header (the caller sets ETag and friends
// first) and returns a pooled stream with an empty buffer.
func newRowStream(w http.ResponseWriter, r *http.Request) *rowStream {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := rowStreams.Get().(*rowStream)
	*e = rowStream{w: w, ctx: r.Context(), buf: e.buf[:0]}
	return e
}

// flush writes the buffer out and reports whether the stream is still good.
func (e *rowStream) flush() bool {
	if e.err == nil {
		e.err = e.ctx.Err()
	}
	if e.err == nil {
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
	return e.err == nil
}

// rows appends a JSON array of rows, flushing as the buffer fills.
func (e *rowStream) rows(rows []orpheusdb.Row) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, '[')
	for i, r := range rows {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendRow(e.buf, r)
		if len(e.buf) >= flushThreshold && !e.flush() {
			return
		}
	}
	e.buf = append(e.buf, ']')
}

// finish flushes the tail, recycles the stream, and returns the bytes
// written and the first error met. A buffer that one oversized row grew far
// past the threshold is dropped rather than pooled.
func (e *rowStream) finish() (int64, error) {
	e.flush()
	n, err := e.n, e.err
	if cap(e.buf) <= 2*flushThreshold {
		e.w, e.ctx = nil, nil
		rowStreams.Put(e)
	}
	return n, err
}

// Row decoding. handleCommit takes "rows" as a json.RawMessage, which
// encoding/json has already validated as one well-formed value, and scanRows
// turns each cell's byte span straight into a Value by the destination
// column's kind — so a commit body can say `3` for both an integer and a
// decimal column, and no cell is boxed on the way. Because the input is known
// to be valid JSON the scanner has no syntax-error states: every byte it
// meets is either the structure it expects or the start of a value of the
// wrong type.

type rowScanner struct {
	b []byte
	i int
}

// peek skips white space and returns the next byte without consuming it.
func (s *rowScanner) peek() byte {
	for {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
}

// skipString advances past the string literal starting at i.
func (s *rowScanner) skipString() {
	for s.i++; s.b[s.i] != '"'; s.i++ {
		if s.b[s.i] == '\\' {
			s.i++
		}
	}
	s.i++
}

// value consumes one JSON value of any type and returns its span.
func (s *rowScanner) value() []byte {
	c := s.peek()
	start := s.i
	switch c {
	case '"':
		s.skipString()
	case '[', '{':
		for depth := 0; ; {
			switch s.b[s.i] {
			case '"':
				s.skipString()
				continue
			case '[', '{':
				depth++
			case ']', '}':
				depth--
			}
			s.i++
			if depth == 0 {
				return s.b[start:s.i]
			}
		}
	default: // a number, true, false or null runs to the next delimiter
		for ; s.i < len(s.b); s.i++ {
			switch s.b[s.i] {
			case ',', ']', '}', ' ', '\t', '\n', '\r':
				return s.b[start:s.i]
			}
		}
	}
	return s.b[start:s.i]
}

// next walks an array: before element i it consumes the '[' (i == 0) or ','
// in front of it and reports true; at the closing ']' it consumes that and
// reports false. The scanner must be at the array's '[' when i is 0.
func (s *rowScanner) next(i int) bool {
	if i == 0 {
		s.i++
	}
	switch s.peek() {
	case ']':
		s.i++
		return false
	case ',':
		s.i++
	}
	return true
}

// jsonType names the type of the JSON value that starts with c.
func jsonType(c byte) string {
	switch c {
	case '"':
		return "string"
	case '[':
		return "array"
	case '{':
		return "object"
	case 't', 'f':
		return "boolean"
	case 'n':
		return "null"
	}
	return "number"
}

func parseInt(span []byte) (int64, error) {
	if t := jsonType(span[0]); t != "number" {
		return 0, fmt.Errorf("want integer, got %s", t)
	}
	n, err := strconv.ParseInt(string(span), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want integer, got %s", span)
	}
	return n, nil
}

// cell consumes one value and converts it to a cell of kind k. null is NULL
// for every kind.
func (s *rowScanner) cell(k engine.Kind) (orpheusdb.Value, error) {
	span := s.value()
	c := span[0]
	if c == 'n' {
		return orpheusdb.Null(), nil
	}
	switch k {
	case engine.KindInt:
		n, err := parseInt(span)
		return orpheusdb.Int(n), err
	case engine.KindFloat:
		if t := jsonType(c); t != "number" {
			return orpheusdb.Value{}, fmt.Errorf("want number, got %s", t)
		}
		f, err := strconv.ParseFloat(string(span), 64)
		if err != nil {
			return orpheusdb.Value{}, fmt.Errorf("want number, got %s", span)
		}
		return orpheusdb.Float(f), nil
	case engine.KindString:
		if c != '"' {
			return orpheusdb.Value{}, fmt.Errorf("want string, got %s", jsonType(c))
		}
		// The bytes between the quotes are the string unless it has an
		// escape or invalid UTF-8; encoding/json handles those.
		if body := span[1 : len(span)-1]; bytes.IndexByte(body, '\\') < 0 && utf8.Valid(body) {
			return orpheusdb.String(string(body)), nil
		}
		var str string
		err := json.Unmarshal(span, &str)
		return orpheusdb.String(str), err
	case engine.KindBool:
		if c != 't' && c != 'f' {
			return orpheusdb.Value{}, fmt.Errorf("want boolean, got %s", jsonType(c))
		}
		return orpheusdb.Bool(c == 't'), nil
	case engine.KindIntArray:
		if c != '[' {
			return orpheusdb.Value{}, fmt.Errorf("want array of integers, got %s", jsonType(c))
		}
		out := []int64{}
		el := rowScanner{b: span}
		for i := 0; el.next(i); i++ {
			n, err := parseInt(el.value())
			if err != nil {
				return orpheusdb.Value{}, fmt.Errorf("array element %d: %w", i, err)
			}
			out = append(out, n)
		}
		return orpheusdb.Array(out), nil
	}
	return orpheusdb.Value{}, fmt.Errorf("unsupported column kind %v", k)
}

// scanRows converts the wire form of a row set (an array of arrays; absent
// or null is no rows) into typed rows under the given schema. raw must be
// valid JSON.
func scanRows(raw []byte, cols []orpheusdb.Column) ([]orpheusdb.Row, error) {
	rows := []orpheusdb.Row{}
	if len(raw) == 0 {
		return rows, nil
	}
	s := rowScanner{b: raw}
	switch c := s.peek(); c {
	case 'n':
		return rows, nil
	case '[':
	default:
		return nil, fmt.Errorf("rows: want array of rows, got %s", jsonType(c))
	}
	for i := 0; s.next(i); i++ {
		row := make(orpheusdb.Row, len(cols))
		// A row's length is checked before any of its values, so a bad cell
		// is held back until the row is known to be the right size.
		var cellErr error
		n := 0
		switch c := s.peek(); c {
		case 'n': // a null row is a row of no values
			s.value()
		case '[':
			for ; s.next(n); n++ {
				if n >= len(cols) || cellErr != nil {
					s.value()
					continue
				}
				if row[n], cellErr = s.cell(cols[n].Type); cellErr != nil {
					cellErr = fmt.Errorf("row %d, column %q: %w", i, cols[n].Name, cellErr)
				}
			}
		default:
			return nil, fmt.Errorf("row %d: want array of values, got %s", i, jsonType(c))
		}
		if n != len(cols) {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, n, len(cols))
		}
		if cellErr != nil {
			return nil, cellErr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// versionIDs converts wire int64 ids to VersionIDs.
func versionIDs(in []int64) []orpheusdb.VersionID {
	if in == nil {
		return nil
	}
	out := make([]orpheusdb.VersionID, len(in))
	for i, v := range in {
		out[i] = orpheusdb.VersionID(v)
	}
	return out
}

// int64IDs converts VersionIDs to wire int64s (never nil, so JSON renders []
// rather than null).
func int64IDs(in []orpheusdb.VersionID) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = int64(v)
	}
	return out
}
