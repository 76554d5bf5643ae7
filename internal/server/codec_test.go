package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/engine"
)

// refJSON is the body writeJSON produces for v.
func refJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// finite returns rows with every NaN or infinite float cell replaced by NULL:
// the reference encoder fails on those, the typed one emits null.
func finite(rows []orpheusdb.Row) []orpheusdb.Row {
	out := make([]orpheusdb.Row, len(rows))
	for i, r := range rows {
		out[i] = append(orpheusdb.Row(nil), r...)
		for j, v := range r {
			if v.K == engine.KindFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
				out[i][j] = orpheusdb.Null()
			}
		}
	}
	return out
}

// checkRowsMatchReference diffs the typed encoder against the reflective one.
func checkRowsMatchReference(t testing.TB, rows []orpheusdb.Row) {
	t.Helper()
	want, err := json.Marshal(encodeRows(finite(rows)))
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	if got := appendRows(nil, rows); !bytes.Equal(got, want) {
		t.Fatalf("encoding differs\n got: %s\nwant: %s", got, want)
	}
}

func TestAppendRowsMatchesReference(t *testing.T) {
	row := func(vs ...orpheusdb.Value) []orpheusdb.Row { return []orpheusdb.Row{vs} }
	var floats, strs orpheusdb.Row
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e20, 1e21, -1e21, 1.5e300, 1e-6, 1e-7, 9.999e-7,
		1e-10, 123456789.125, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
		float64(math.MaxInt64), 1 << 53, 0.000001234, 100, 1e6, 12345678901234567890,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		floats = append(floats, orpheusdb.Float(f))
	}
	for _, s := range []string{"", "plain ascii", `quo"te`, `back\slash`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "line\u2028sep\u2029end", "héllo wörld ☃ 𝄞", "bad\xffutf8\xc3", "\xe2\x80", "trail\xe2\x80\xa8",
		strings.Repeat("x", 300) + "<"} {
		strs = append(strs, orpheusdb.String(s))
	}
	cases := map[string][]orpheusdb.Row{
		"nil row set":   nil,
		"empty row set": {},
		"empty row":     {{}},
		"null":          row(orpheusdb.Null()),
		"ints":          row(orpheusdb.Int(0), orpheusdb.Int(-1), orpheusdb.Int(math.MinInt64), orpheusdb.Int(math.MaxInt64)),
		"floats":        {floats},
		"strings":       {strs},
		"bools":         row(orpheusdb.Bool(true), orpheusdb.Bool(false), orpheusdb.Value{K: engine.KindBool, I: 7}),
		"arrays":        row(orpheusdb.Array(nil), orpheusdb.Array([]int64{}), orpheusdb.Array([]int64{3, -1, math.MinInt64})),
		"bitmaps": row(engine.BitmapValue(nil), orpheusdb.Value{K: engine.KindBitmap},
			engine.BitmapFromSlice([]int64{70000, 1, 2, 65536})),
		"unknown kind": row(orpheusdb.Value{K: engine.Kind(42), S: "x"}),
		"several rows": {{orpheusdb.Int(1), orpheusdb.String("a")}, {orpheusdb.Null(), orpheusdb.Float(2.5)}, {}},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { checkRowsMatchReference(t, rows) })
	}
}

// rowsFromBytes builds a row set from fuzz input: the first byte is the row
// width, then each row is a marker byte and each cell a kind byte followed by
// its payload. Every
// engine.Kind, and one kind the engine does not define, can come out.
func rowsFromBytes(data []byte) []orpheusdb.Row {
	next := func(n int) []byte {
		n = min(n, len(data))
		out := data[:n]
		data = data[n:]
		return out
	}
	u64 := func() uint64 {
		var b [8]byte
		copy(b[:], next(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	ints := func() []int64 {
		var a []int64
		if n := next(1); len(n) == 1 {
			a = make([]int64, n[0]%4)
		}
		for i := range a {
			a[i] = int64(u64())
		}
		return a
	}
	if len(data) == 0 {
		return nil
	}
	width := int(next(1)[0] % 8)
	rows := []orpheusdb.Row{}
	for len(next(1)) > 0 { // one byte per row, so that rows of no cells end too
		row := make(orpheusdb.Row, width)
		for j := range row {
			kind := next(1)
			if len(kind) == 0 {
				break
			}
			switch engine.Kind(kind[0] % 8) {
			case engine.KindInt:
				row[j] = orpheusdb.Int(int64(u64()))
			case engine.KindFloat:
				row[j] = orpheusdb.Float(math.Float64frombits(u64()))
			case engine.KindString:
				n := next(1)
				if len(n) == 1 {
					row[j] = orpheusdb.String(string(next(int(n[0]))))
				}
			case engine.KindBool:
				row[j] = orpheusdb.Bool(len(next(1)) == 1)
			case engine.KindIntArray:
				row[j] = orpheusdb.Array(ints())
			case engine.KindBitmap:
				row[j] = engine.BitmapFromSlice(ints())
			case 7:
				row[j] = orpheusdb.Value{K: engine.Kind(7), S: string(next(2))}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func FuzzAppendRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1})                                                                             // two rows of no cells
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x80})                                                  // MinInt64
	f.Add([]byte{1, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})                                               // +Inf
	f.Add([]byte{1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0x80})                                                  // -0
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0})                                                     // smallest subnormal
	f.Add(append([]byte{2, 0, 3, 12}, "<a&b>\"\\\n\xe2\x80\xa8\xff"...))                               // escapes, U+2028, invalid UTF-8
	f.Add([]byte{4, 0, 4, 1, 5, 1, 7, 0, 0, 0, 0, 0, 0, 0, 6, 1, 9, 0, 0, 0, 0, 0, 0, 0, 7, 'h', 'i'}) // bool, array, bitmap, unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRowsMatchReference(t, rowsFromBytes(data))
	})
}

// refScan decodes a commit body's rows the way the server used to.
func refScan(body []byte, cols []orpheusdb.Column) ([]orpheusdb.Row, error) {
	var req struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return decodeRows(req.Rows, cols)
}

// newScan decodes them the way handleCommit does now.
func newScan(body []byte, cols []orpheusdb.Column) ([]orpheusdb.Row, error) {
	var req commitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return scanRows(req.Rows, cols)
}

// errPosition matches the part of a row-decoding error that says where: the
// whole of a wrong-length error, or the row and column of a bad cell.
var errPosition = regexp.MustCompile(`^row \d+(, column "[^"]*":| has \d+ values, want \d+$)`)

// checkScanMatchesReference requires the two decoders to agree on whether
// body is acceptable, on the rows, and on where a row error lies.
func checkScanMatchesReference(t testing.TB, body []byte, cols []orpheusdb.Column) {
	t.Helper()
	want, wantErr := refScan(body, cols)
	got, gotErr := newScan(body, cols)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: reference error %v, scanner error %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		if pos := errPosition.FindString(wantErr.Error()); pos != errPosition.FindString(gotErr.Error()) {
			t.Fatalf("body %q: reference error %q, scanner error %q", body, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %v\nwant %v", body, got, want)
	}
}

// colsFromKinds builds a schema c0, c1, ... from kind bytes (any value: the
// codec must refuse kinds it cannot decode, not crash on them).
func colsFromKinds(kinds []byte) []orpheusdb.Column {
	cols := make([]orpheusdb.Column, len(kinds))
	for i, k := range kinds {
		cols[i] = orpheusdb.Column{Name: fmt.Sprintf("c%d", i), Type: engine.Kind(k % 8)}
	}
	return cols
}

var scanSeeds = []struct {
	body  string
	kinds []byte
}{
	{`{"rows":[[1,2.5,"a",true,[1,2]]]}`, []byte{1, 2, 3, 4, 5}},
	{`{"rows":[[null,null,null,null,null]]}`, []byte{1, 2, 3, 4, 5}},
	{`{"rows":[[1e3]]}`, []byte{1}},
	{`{"rows":[[3.0]]}`, []byte{1}},
	{`{"rows":[[1e3, 3.0, -0, 1E-2]]}`, []byte{2, 2, 2, 2}},
	{`{"rows":[[-0, 9223372036854775807, -9223372036854775808]]}`, []byte{1, 1, 1}},
	{`{"rows":[[9223372036854775808]]}`, []byte{1}},
	{`{"rows":[[1e999]]}`, []byte{2}},
	{`{"rows":[["1"]]}`, []byte{1}},
	{`{"rows":[[1]]}`, []byte{3}},
	{`{"rows":[["a\"b\\c\u00e9\ud834\udd1e\n", "plain", "\ud800", "caf\u00e9"]]}`, []byte{3, 3, 3, 3}},
	{"{\"rows\":[[\"bad\xffutf8\"]]}", []byte{3}},
	{`{"rows":[[1,"x"],[2]]}`, []byte{1, 3}},
	{`{"rows":[["x",1,2]]}`, []byte{1, 3}},
	{`{"rows":[[1,"a"],["bad","b"],[3]]}`, []byte{1, 3}},
	{`{"rows":[[1,{"k":[1,"]",{"q":"\"]"}]}]]}`, []byte{1, 3}},
	{`{"rows":[[[1,2,"3"]],[[1.5]],[[null]],[[]]]}`, []byte{5}},
	{`{"rows":[[[], [ 1 , 2 ]]]}`, []byte{5, 5}},
	{" { \"rows\" : [ [ 1 , \"a\" ] ,\n\t[ 2 , \"b\" ] ] } ", []byte{1, 3}},
	{`{"rows":null}`, []byte{1}},
	{`{"rows":[]}`, []byte{1}},
	{`{"message":"no rows at all"}`, []byte{1}},
	{`{"rows":[null]}`, []byte{1}},
	{`{"rows":[null,[]]}`, nil},
	{`{"rows":[1]}`, []byte{1}},
	{`{"rows":{"a":1}}`, []byte{1}},
	{`{"rows":"x"}`, []byte{1}},
	{`{"rows":[[1]],"rows":[[2]]}`, []byte{1}},
	{`{"rows":[[true,false,"true",0]]}`, []byte{4, 4, 4, 4}},
	{`{"rows":[[1,null]]}`, []byte{0, 6}},
	{`{"rows":[[1]]}`, []byte{6}},
	{`{"rows":[[1]]`, []byte{1}},
	{`[[1]]`, []byte{1}},
}

func TestScanRowsMatchesReference(t *testing.T) {
	for _, c := range scanSeeds {
		checkScanMatchesReference(t, []byte(c.body), colsFromKinds(c.kinds))
	}
}

func FuzzScanRows(f *testing.F) {
	for _, c := range scanSeeds {
		f.Add([]byte(c.body), c.kinds)
	}
	f.Fuzz(func(t *testing.T, body, kinds []byte) {
		checkScanMatchesReference(t, body, colsFromKinds(kinds))
	})
}

// TestScanRowsErrors pins the messages a client sees for each kind of
// refusal.
func TestScanRowsErrors(t *testing.T) {
	cols := []orpheusdb.Column{{Name: "id", Type: engine.KindInt}, {Name: "x", Type: engine.KindFloat},
		{Name: "s", Type: engine.KindString}, {Name: "ok", Type: engine.KindBool}, {Name: "a", Type: engine.KindIntArray}}
	for rows, want := range map[string]string{
		`[[1,1,"s",true,[]],[1e3,1,"s",true,[]]]`: `row 1, column "id": want integer, got 1e3`,
		`[["1",1,"s",true,[]]]`:                   `row 0, column "id": want integer, got string`,
		`[[1,"1","s",true,[]]]`:                   `row 0, column "x": want number, got string`,
		`[[1,1,2,true,[]]]`:                       `row 0, column "s": want string, got number`,
		`[[1,1,"s",{},[]]]`:                       `row 0, column "ok": want boolean, got object`,
		`[[1,1,"s",true,false]]`:                  `row 0, column "a": want array of integers, got boolean`,
		`[[1,1,"s",true,[1,null]]]`:               `row 0, column "a": array element 1: want integer, got null`,
		`[[1,1,"s",true,[1,2.5]]]`:                `row 0, column "a": array element 1: want integer, got 2.5`,
		`[[1,1,"s",true,[]],["bad"]]`:             `row 1 has 1 values, want 5`,
		`[7]`:                                     `row 0: want array of values, got number`,
		`{}`:                                      `rows: want array of rows, got object`,
	} {
		if _, err := scanRows([]byte(rows), cols); err == nil || err.Error() != want {
			t.Errorf("rows %s:\n got error %v\nwant error %s", rows, err, want)
		}
	}
}

// benchTable builds n rows of the benchmark's schema, (INT, INT, INT, FLOAT,
// TEXT/16), and an empty dataset "t" of that schema in store.
func benchTable(t testing.TB, store *orpheusdb.Store, n int) (*orpheusdb.Dataset, []orpheusdb.Row) {
	t.Helper()
	d, err := store.Init("t", []orpheusdb.Column{
		{Name: "k", Type: engine.KindInt}, {Name: "a", Type: engine.KindInt}, {Name: "b", Type: engine.KindInt},
		{Name: "x", Type: engine.KindFloat}, {Name: "s", Type: engine.KindString},
	}, orpheusdb.InitOptions{PrimaryKey: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]orpheusdb.Row, n)
	for i := range rows {
		k := int64(i)
		rows[i] = orpheusdb.Row{orpheusdb.Int(k), orpheusdb.Int(k * 7919 % 1_000_000), orpheusdb.Int(k % 1000),
			orpheusdb.Float(float64(k*104729%(1<<20)) / 1024), orpheusdb.String(fmt.Sprintf("%016x", uint64(k)*0x9e3779b97f4a7c15))}
	}
	return d, rows
}

// discardWriter is a ResponseWriter that drops the body, so that what a
// benchmark or an allocation count sees is the encoder.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) WriteHeader(int)             {}
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestEncodeAllocations fails when an edit brings per-row or per-cell
// allocation back: encoding a 1000-row checkout costs the stream, its header
// and — when the pool is cold — the buffer, whatever the row count.
func TestEncodeAllocations(t *testing.T) {
	d, rows := benchTable(t, orpheusdb.NewStore(), 1000)
	w, r := discardWriter{http.Header{}}, httptest.NewRequest("GET", "/", nil)
	vids := []orpheusdb.VersionID{1}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := writeCheckout(w, r, "t", vids, d.Columns(), rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("encoding 1000 rows costs %.0f allocations, want at most 8", allocs)
	}
}

func BenchmarkEncodeCheckout(b *testing.B) {
	d, rows := benchTable(b, orpheusdb.NewStore(), 1000)
	w, r := discardWriter{http.Header{}}, httptest.NewRequest("GET", "/", nil)
	vids, cols := []orpheusdb.VersionID{1}, d.Columns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := writeCheckout(w, r, "t", vids, cols, rows)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}

func BenchmarkDecodeCommit(b *testing.B) {
	d, rows := benchTable(b, orpheusdb.NewStore(), 1000)
	body := refJSON(b, map[string]any{"rows": encodeRows(rows), "message": "m"})
	w := discardWriter{http.Header{}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		if _, _, got, err := decodeCommit(w, r, d); err != nil || len(got) != len(rows) {
			b.Fatalf("decoded %d rows, error %v", len(got), err)
		}
	}
}

// awkwardStore seeds dataset "awk" with cells that exercise every
// formatting rule, in three versions: two with rows and an empty one.
func awkwardStore(t *testing.T) (*orpheusdb.Store, *orpheusdb.Dataset) {
	t.Helper()
	store := orpheusdb.NewStore()
	d, err := store.Init("awk", []orpheusdb.Column{
		{Name: "id", Type: engine.KindInt}, {Name: "x", Type: engine.KindFloat}, {Name: "s \"q\"", Type: engine.KindString},
		{Name: "ok", Type: engine.KindBool}, {Name: "a", Type: engine.KindIntArray},
	}, orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64, x float64, s string, ok bool, a []int64) orpheusdb.Row {
		return orpheusdb.Row{orpheusdb.Int(id), orpheusdb.Float(x), orpheusdb.String(s), orpheusdb.Bool(ok), orpheusdb.Array(a)}
	}
	v1, err := d.Commit([]orpheusdb.Row{
		row(1, math.Copysign(0, -1), "<b>&</b>", true, nil),
		row(2, 1e21, "line\u2028sep \"quoted\" back\\slash", false, []int64{1, 2, 3}),
		row(math.MinInt64, 1e-7, "bad\xffutf8\ttab", true, []int64{}),
		{orpheusdb.Int(4), orpheusdb.Null(), orpheusdb.Null(), orpheusdb.Null(), orpheusdb.Null()},
	}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.Commit([]orpheusdb.Row{
		row(1, 0.1, "changed", true, nil),
		row(2, 1e21, "line\u2028sep \"quoted\" back\\slash", false, []int64{1, 2, 3}),
		row(math.MaxInt64, 5e-324, "héllo ☃", false, []int64{math.MinInt64}),
	}, []orpheusdb.VersionID{v1}, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(nil, []orpheusdb.VersionID{v2}, "empty"); err != nil {
		t.Fatal(err)
	}
	return store, d
}

// get fetches url and returns status, headers and the raw body.
func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(refJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestGoldenEnvelopes holds every row-bearing response to the bytes the
// reflective writeJSON(map[string]any{...}) produced for it.
func TestGoldenEnvelopes(t *testing.T) {
	store, d := awkwardStore(t)
	ts := newTestServerWith(t, store)
	base := ts.URL + "/api/v1/datasets/awk"

	for _, vids := range [][]orpheusdb.VersionID{{1}, {2}, {1, 2}, {3}} {
		cols, rows, _, err := d.CheckoutWithTokenCtx(context.Background(), vids...)
		if err != nil {
			t.Fatal(err)
		}
		want := refJSON(t, map[string]any{
			"dataset":  d.Name(),
			"versions": int64IDs(vids),
			"columns":  encodeColumns(cols),
			"rows":     encodeRows(rows),
		})
		q := strings.Trim(strings.ReplaceAll(fmt.Sprint(int64IDs(vids)), " ", ","), "[]")
		status, hdr, got := get(t, base+"/checkout?versions="+q)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("checkout %v: status %d\n got %s\nwant %s", vids, status, got, want)
		}
		if hdr.Get("Content-Type") != "application/json" || hdr.Get("ETag") == "" || hdr.Get("ETag") != hdr.Get("X-Orpheus-Version") {
			t.Errorf("checkout %v: headers %v", vids, hdr)
		}
		if len(vids) == 1 && vids[0] == 3 && !bytes.Contains(got, []byte(`"rows":[]`)) {
			t.Errorf("empty version: body %s", got)
		}
	}

	for _, ab := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		cols, onlyA, onlyB, err := d.DiffWithColumns(orpheusdb.VersionID(ab[0]), orpheusdb.VersionID(ab[1]))
		if err != nil {
			t.Fatal(err)
		}
		want := refJSON(t, map[string]any{
			"dataset": d.Name(),
			"a":       ab[0],
			"b":       ab[1],
			"columns": encodeColumns(cols),
			"onlyA":   encodeRows(onlyA),
			"onlyB":   encodeRows(onlyB),
		})
		status, hdr, got := get(t, fmt.Sprintf("%s/diff?a=%d&b=%d", base, ab[0], ab[1]))
		if status != http.StatusOK || !bytes.Equal(got, want) || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("diff %v: status %d\n got %s\nwant %s", ab, status, got, want)
		}
	}

	for _, sql := range []string{
		`SELECT * FROM VERSION 1 OF CVD awk`,
		`SELECT id, x FROM VERSION 2 OF CVD awk WHERE id > 1`,
		`SELECT count(*), avg(x) FROM VERSION 1 UNION 2 OF CVD awk`,
		`SELECT id FROM VERSION 3 OF CVD awk`,
	} {
		res, err := store.Run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cols := res.Cols
		if cols == nil {
			cols = []string{}
		}
		want := refJSON(t, map[string]any{
			"columns":  cols,
			"rows":     encodeRows(res.Rows),
			"affected": res.Affected,
		})
		status, got := post(t, ts.URL+"/api/v1/query", map[string]any{"sql": sql})
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d\n got %s\nwant %s", sql, status, got, want)
		}
	}
}

// TestGoldenMergeConflict does the same for the conflict rows of a refused
// merge (409) and of a merge resolved by policy (200).
func TestGoldenMergeConflict(t *testing.T) {
	store, name := branchStore(t)
	ts := newTestServerWith(t, store)
	d, err := store.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	// A merge refused under the fail policy changes nothing, so the report
	// the server will build can be had from the API first.
	res, mergeErr := d.Merge("2", "3", orpheusdb.MergeFail, "")
	var ce *orpheusdb.MergeConflictError
	if !errors.As(mergeErr, &ce) || len(res.Conflicts) == 0 {
		t.Fatalf("merge: result %+v, error %v", res, mergeErr)
	}
	want := refJSON(t, map[string]any{
		"error": map[string]any{
			"code":      "merge_conflict",
			"message":   mergeErr.Error(),
			"conflicts": refConflictsToJSON(res.Conflicts),
		},
	})
	url := ts.URL + "/api/v1/datasets/" + name + "/merge"
	status, got := post(t, url, map[string]any{"ours": "2", "theirs": "3"})
	if status != http.StatusConflict || !bytes.Equal(got, want) {
		t.Errorf("refused merge: status %d\n got %s\nwant %s", status, got, want)
	}

	status, got = post(t, url, map[string]any{"ours": "2", "theirs": "3", "policy": "theirs"})
	var body struct {
		Conflicts json.RawMessage `json:"conflicts"`
	}
	if err := json.Unmarshal(got, &body); err != nil || status != http.StatusOK {
		t.Fatalf("resolved merge: status %d, body %s, error %v", status, got, err)
	}
	if want := bytes.TrimSpace(refJSON(t, refConflictsToJSON(res.Conflicts))); !bytes.Equal(body.Conflicts, want) {
		t.Errorf("resolved merge conflicts:\n got %s\nwant %s", body.Conflicts, want)
	}
}

// TestCheckoutNonFiniteFloats: NaN and the infinities, which arithmetic and
// the Go API can put in a FLOAT cell, come back as null in a well-formed
// body. They used to fail the encoder after the 200 was sent, leaving the
// client an empty body.
func TestCheckoutNonFiniteFloats(t *testing.T) {
	store := orpheusdb.NewStore()
	d, err := store.Init("f", []orpheusdb.Column{{Name: "id", Type: engine.KindInt}, {Name: "x", Type: engine.KindFloat}},
		orpheusdb.InitOptions{PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit([]orpheusdb.Row{
		{orpheusdb.Int(1), orpheusdb.Float(math.NaN())},
		{orpheusdb.Int(2), orpheusdb.Float(math.Inf(1))},
		{orpheusdb.Int(3), orpheusdb.Float(math.Inf(-1))},
		{orpheusdb.Int(4), orpheusdb.Float(1.5)},
	}, nil, "non-finite"); err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, store)
	status, _, body := get(t, ts.URL+"/api/v1/datasets/f/checkout?versions=1")
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil || status != http.StatusOK {
		t.Fatalf("status %d, body %q, error %v", status, body, err)
	}
	want := [][]any{{1.0, nil}, {2.0, nil}, {3.0, nil}, {4.0, 1.5}}
	if !reflect.DeepEqual(out.Rows, want) {
		t.Fatalf("rows %v, want %v", out.Rows, want)
	}
}

// repeated is an endless reader of one byte.
type repeated byte

func (b repeated) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBody: a commit body one byte past the cap is refused with 413
// rather than truncated into a misleading JSON syntax error, and a body
// exactly at the cap is still read whole.
func TestOversizedBody(t *testing.T) {
	store := orpheusdb.NewStore()
	if _, err := store.Init("t", []orpheusdb.Column{{Name: "id", Type: engine.KindInt}}, orpheusdb.InitOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(store, nil)
	const head, tail = `{"rows":[[1]],"message":"`, `"}`
	for _, c := range []struct {
		size   int
		status int
		code   string
	}{
		{maxBodyBytes, http.StatusCreated, ""},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge, "payload_too_large"},
	} {
		body := io.MultiReader(strings.NewReader(head),
			io.LimitReader(repeated('m'), int64(c.size-len(head)-len(tail))), strings.NewReader(tail))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/datasets/t/commit", body))
		var out struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%d-byte body: response %q: %v", c.size, rec.Body, err)
		}
		if rec.Code != c.status || out.Error.Code != c.code {
			t.Errorf("%d-byte body: status %d, error %+v; want %d %q", c.size, rec.Code, out.Error, c.status, c.code)
		}
	}
}

// stoppingWriter is a ResponseWriter whose client goes away: writes fail once
// limit bytes were accepted, or, with cancel set, the request's context is
// cancelled by the first write.
type stoppingWriter struct {
	h      http.Header
	limit  int
	cancel context.CancelFunc
	handed int // bytes passed to Write, accepted or not
	writes int
}

func (w *stoppingWriter) Header() http.Header { return w.h }
func (w *stoppingWriter) WriteHeader(int)     {}
func (w *stoppingWriter) Write(p []byte) (int, error) {
	accepted := w.handed
	w.handed += len(p)
	w.writes++
	if w.cancel != nil {
		w.cancel()
		return len(p), nil
	}
	if w.handed > w.limit {
		return max(w.limit-accepted, 0), errors.New("client went away")
	}
	return len(p), nil
}

// TestCheckoutStopsWhenClientIsGone: after a failed write, or once the
// request's context is done, the handler returns without encoding the rest.
func TestCheckoutStopsWhenClientIsGone(t *testing.T) {
	store := orpheusdb.NewStore()
	d, rows := benchTable(t, store, 20000) // a 1.2 MB body, some eighteen flushes
	if _, err := d.Commit(rows, nil, "big"); err != nil {
		t.Fatal(err)
	}
	srv := New(store, nil)
	const rowBytes = 128 // more than any row of benchTable encodes to
	full := httptest.NewRecorder()
	srv.ServeHTTP(full, httptest.NewRequest("GET", "/api/v1/datasets/t/checkout?versions=1", nil))
	if full.Code != http.StatusOK || full.Body.Len() < 15*flushThreshold {
		t.Fatalf("full checkout: status %d, %d bytes", full.Code, full.Body.Len())
	}

	for _, limit := range []int{0, 1000, 3*flushThreshold + 17} {
		w := &stoppingWriter{h: http.Header{}, limit: limit}
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/datasets/t/checkout?versions=1", nil))
		if w.handed <= limit || w.handed > limit+flushThreshold+rowBytes {
			t.Errorf("writer failing after %d bytes was handed %d in %d writes", limit, w.handed, w.writes)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	w := &stoppingWriter{h: http.Header{}, cancel: cancel}
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/datasets/t/checkout?versions=1", nil).WithContext(ctx))
	if w.writes != 1 || w.handed > flushThreshold+rowBytes {
		t.Errorf("after the context was cancelled: %d writes, %d bytes", w.writes, w.handed)
	}
}
