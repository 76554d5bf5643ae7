package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// encodeLegacyPage is the page encoder this repository had before the page
// layout: gob over the live rows and a liveness mask. It lives on in tests
// only, as the reference the typed codec is compared with and as the way to
// build a store that looks like one an older binary wrote.
func encodeLegacyPage(t testing.TB, slots []Row) []byte {
	t.Helper()
	pd := legacyPage{Live: make([]bool, len(slots))}
	for i, r := range slots {
		if r != nil {
			pd.Live[i] = true
			pd.Rows = append(pd.Rows, r)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&pd); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

func mustEncodePage(t testing.TB, slots []Row) []byte {
	t.Helper()
	raw, err := encodePage(nil, slots)
	if err != nil {
		t.Fatalf("encodePage: %v", err)
	}
	return raw
}

// benchShapedPage is a full page of the benchmark's data table: the rid
// column the versioning layer prepends, then bench/gen.go's k, a, b, x, s.
func benchShapedPage(seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]Row, RowsPerPage)
	for i := range slots {
		slots[i] = Row{
			IntValue(int64(20_000 + i)),
			IntValue(int64(9_000 + i)),
			IntValue(rng.Int63n(1_000_000)),
			IntValue(rng.Int63n(1000)),
			FloatValue(float64(rng.Intn(1<<20)) / 1024),
			StringValue(fmt.Sprintf("%016x", rng.Uint64())),
		}
	}
	return slots
}

// versioningPage is a page of a versioning table: (vid, rlist bitmap) rows,
// each rlist a few hundred rids that mostly continue the previous version's.
func versioningPage(seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]Row, 64)
	for i := range slots {
		rids := make([]int64, 0, 400)
		next := int64(i * 40)
		for len(rids) < cap(rids) {
			next += 1 + rng.Int63n(3)
			rids = append(rids, next)
		}
		slots[i] = Row{IntValue(int64(i + 1)), BitmapFromSlice(rids)}
	}
	return slots
}

// sameSlots compares two pages cell by cell: floats by their bits (NaN has
// to compare equal to itself, −0 is not 0), bitmaps by content with nil distinct from empty, and an
// empty array equal to a nil one (gob cannot tell those apart either).
func sameSlots(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d slots vs %d", len(a), len(b))
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return fmt.Errorf("slot %d: live %v vs %v", i, a[i] != nil, b[i] != nil)
		}
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("slot %d: %d cells vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			same := x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) &&
				x.S == y.S && len(x.A) == len(y.A) && (x.B == nil) == (y.B == nil)
			for k := 0; same && k < len(x.A); k++ {
				same = x.A[k] == y.A[k]
			}
			if same && x.B != nil {
				same = x.B.Equal(y.B)
			}
			if !same {
				return fmt.Errorf("slot %d cell %d: %#v vs %#v", i, j, x, y)
			}
		}
	}
	return nil
}

// codecPages are the shapes the codec must carry: every kind and every edge
// of every kind, tombstones, an empty page, a short last page.
func codecPages() map[string][]Row {
	edge := Row{
		NullValue(),
		IntValue(0), IntValue(-1), IntValue(math.MaxInt64), IntValue(math.MinInt64),
		BoolValue(true), BoolValue(false),
		FloatValue(math.NaN()), FloatValue(math.Inf(1)), FloatValue(math.Inf(-1)),
		FloatValue(0), FloatValue(1.5),
		StringValue(""), StringValue("héllo\x00\xff"),
		ArrayValue(nil), ArrayValue([]int64{}), ArrayValue([]int64{-7, 0, 1 << 40}),
		{K: KindBitmap}, BitmapValue(nil), BitmapFromSlice([]int64{1, 2, 3, 70_000, 1 << 33}),
	}
	nulls := make(Row, len(edge))
	tombstoned := benchShapedPage(2)
	for i := range tombstoned {
		if i%3 == 0 || i > 200 {
			tombstoned[i] = nil
		}
	}
	wide := make([]Row, 5)
	for i := range wide {
		wide[i] = CloneRow(edge)
		wide[i][1] = IntValue(int64(i))
	}
	wide[2] = nulls
	return map[string][]Row{
		"empty":        {},
		"all-dead":     make([]Row, 9),
		"edges":        wide,
		"bench":        benchShapedPage(1),
		"tombstoned":   tombstoned,
		"short-last":   benchShapedPage(3)[:37],
		"versioning":   versioningPage(1),
		"single-null":  {Row{NullValue()}},
		"long-strings": {Row{StringValue(string(bytes.Repeat([]byte("x"), 300)))}, nil},
	}
}

// TestPageCodecMatchesGob is the differential test: what comes back from the
// typed codec is what came back from the gob pair, for every page shape, and
// decodePage reads the gob bytes themselves to the same page.
func TestPageCodecMatchesGob(t *testing.T) {
	for name, slots := range codecPages() {
		t.Run(name, func(t *testing.T) {
			legacy := encodeLegacyPage(t, slots)
			want, err := decodeLegacyPage(legacy)
			if err != nil {
				t.Fatalf("gob round trip: %v", err)
			}
			if err := sameSlots(slots, want); err != nil {
				t.Fatalf("gob reference differs from the input: %v", err)
			}
			raw := mustEncodePage(t, slots)
			if raw[0] != pageMagic || isLegacyPage(raw) {
				t.Fatalf("typed page starts with %#x", raw[0])
			}
			if !isLegacyPage(legacy) {
				t.Fatalf("gob page starts with %#x, inside the magic range", legacy[0])
			}
			got, err := decodePage(raw)
			if err != nil {
				t.Fatalf("decodePage: %v", err)
			}
			if err := sameSlots(want, got); err != nil {
				t.Fatalf("typed codec differs from gob: %v", err)
			}
			if cap(got) != RowsPerPage {
				t.Fatalf("decoded page has cap %d, want room for %d slots", cap(got), RowsPerPage)
			}
			viaDispatch, err := decodePage(legacy)
			if err != nil {
				t.Fatalf("decodePage(gob bytes): %v", err)
			}
			if err := sameSlots(want, viaDispatch); err != nil {
				t.Fatalf("decodePage(gob bytes) differs: %v", err)
			}
			again := mustEncodePage(t, got)
			if !bytes.Equal(raw, again) {
				t.Fatalf("encode∘decode∘encode changed the bytes")
			}
		})
	}
}

// TestPageCodecKeepsWhatGobDropped: gob leaves zero-valued struct fields and
// empty slices out of the stream, so −0 came back as 0 and a live row of no
// cells as a tombstone. The layout writes both down.
func TestPageCodecKeepsWhatGobDropped(t *testing.T) {
	slots := []Row{{}, nil, {}}
	got, err := decodePage(mustEncodePage(t, slots))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSlots(slots, got); err != nil {
		t.Errorf("zero-width rows: %v", err)
	}
	slots = []Row{{FloatValue(math.Copysign(0, -1))}}
	got, err = decodePage(mustEncodePage(t, slots))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSlots(slots, got); err != nil {
		t.Errorf("negative zero: %v", err)
	}
}

// TestPageEncodeRejectsImpossiblePages: the three pages no table can hold.
func TestPageEncodeRejectsImpossiblePages(t *testing.T) {
	for name, slots := range map[string][]Row{
		"too many slots": make([]Row, RowsPerPage+1),
		"ragged":         {Row{IntValue(1)}, Row{IntValue(1), IntValue(2)}},
		"unknown kind":   {Row{{K: Kind(99)}}},
	} {
		if _, err := encodePage(nil, slots); err == nil {
			t.Errorf("%s: encodePage accepted it", name)
		}
	}
}

// TestPageSizeNoLargerThanGob is the size guard: a page must not come out
// larger than gob made it, on the two shapes that fill a store.
func TestPageSizeNoLargerThanGob(t *testing.T) {
	for name, slots := range map[string][]Row{"bench": benchShapedPage(1), "versioning": versioningPage(1)} {
		typed, legacy := len(mustEncodePage(t, slots)), len(encodeLegacyPage(t, slots))
		t.Logf("%s page: typed %d bytes, gob %d bytes (%.1f%%)", name, typed, legacy, 100*float64(typed)/float64(legacy))
		if typed > legacy {
			t.Errorf("%s page: typed codec wrote %d bytes, gob %d", name, typed, legacy)
		}
	}
}

// TestPageDecodeAllocations bounds what a fault allocates on the bench-shaped
// page: the Row and the string of each live row, and a constant.
func TestPageDecodeAllocations(t *testing.T) {
	raw := mustEncodePage(t, benchShapedPage(1))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := decodePage(raw); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*RowsPerPage + 8); allocs > limit {
		t.Errorf("decodePage allocated %.0f times, want ≤ %.0f", allocs, limit)
	}
}

// corruptPages are hand-made bad inputs; the fuzz corpus under testdata
// carries the same ones.
func corruptPages() map[string][]byte {
	good, _ := encodePage(nil, benchShapedPage(1)[:4])
	huge := binary.AppendUvarint(nil, 1<<62)
	return map[string][]byte{
		"empty":             {},
		"magic only":        {pageMagic},
		"bad version":       {pageMagic, 9, 0, 0},
		"unknown lead byte": {0x90, 1, 0, 0},
		"huge slot count":   append([]byte{pageMagic, pageVersion}, append(huge, 1)...),
		"slots > page":      {pageMagic, pageVersion, 0x81, 0x02, 1},
		"huge width":        append(append([]byte{pageMagic, pageVersion, 1}, huge...), 0x01),
		"huge string":       append(append([]byte{pageMagic, pageVersion, 1, 1, 0x01, byte(KindString)}, huge...), 'a'),
		"huge array":        append(append([]byte{pageMagic, pageVersion, 1, 1, 0x01, byte(KindIntArray)}, huge...), 2),
		"huge bitmap":       append(append([]byte{pageMagic, pageVersion, 1, 1, 0x01, byte(KindBitmap)}, huge...), 2),
		"bad bitmap":        {pageMagic, pageVersion, 1, 1, 0x01, byte(KindBitmap), 3, 'O', 'R', 'B'},
		"unknown kind":      {pageMagic, pageVersion, 1, 1, 0x01, 42},
		"truncated float":   {pageMagic, pageVersion, 1, 1, 0x01, byte(KindFloat), 1, 2, 3},
		"truncated":         good[:len(good)-3],
		"trailing":          append(append([]byte(nil), good...), 0),
		"bad gob":           {0x03, 0xff, 0x82},
	}
}

// TestPageDecodeRejectsCorruptInput: every bad input is ErrCorruptPage, and a
// count the input cannot back is refused before it sizes an allocation.
func TestPageDecodeRejectsCorruptInput(t *testing.T) {
	for name, data := range corruptPages() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodePage(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptPage) {
			t.Errorf("%s: err = %v, want ErrCorruptPage", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(data), grew)
		}
	}
}

// FuzzDecodePage: decodePage never panics; what it accepts in the page layout
// holds no more slots and cells than the input has bytes for, and encodes
// back to a page that decodes to the same slots.
func FuzzDecodePage(f *testing.F) {
	// Short pages: the engine minimizes every input it finds interesting
	// (run it with -fuzzminimizetime=1s or so), and on 50 KB seeds that is
	// all it would do with a smoke run's time.
	for _, slots := range codecPages() {
		f.Add(mustEncodePage(f, slots[:min(len(slots), 4)]))
	}
	for _, data := range corruptPages() {
		f.Add(data)
	}
	f.Add(encodeLegacyPage(f, benchShapedPage(1)[:3]))
	f.Fuzz(func(t *testing.T, data []byte) {
		slots, err := decodePage(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("error is not ErrCorruptPage: %v", err)
			}
			return
		}
		if isLegacyPage(data) {
			return // gob's own decoder; only the no-panic half applies
		}
		cells := 0
		for _, r := range slots {
			cells += len(r)
		}
		if len(slots) > RowsPerPage || len(slots) > 8*len(data) || cells > len(data) {
			t.Fatalf("%d bytes decoded to %d slots, %d cells", len(data), len(slots), cells)
		}
		raw, err := encodePage(nil, slots)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := decodePage(raw)
		if err != nil {
			t.Fatalf("decode of re-encoded page: %v", err)
		}
		if err := sameSlots(slots, again); err != nil {
			t.Fatalf("decode∘encode is not the identity: %v", err)
		}
	})
}

// BenchmarkPageDecode and BenchmarkPageEncode put the gob pair and the typed
// codec side by side on the bench-shaped page. Both run over serverHeap: in a
// test binary's empty heap the collector runs every 4 MB — every 35 decoded
// pages — and returns the memory to the system in between, and what is timed
// is then mostly that (typed 45–75 µs against 30 µs here, gob 190–215 against
// 165).
// serverHeap is a pointer-free allocation about the size of the live heap of
// the end-to-end benchmark's server (proc.peak_heap_mb ≈ 80).
func serverHeap() []byte { return make([]byte, 64<<20) }

func BenchmarkPageDecode(b *testing.B) {
	defer runtime.KeepAlive(serverHeap())
	slots := benchShapedPage(1)
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"gob", encodeLegacyPage(b, slots)}, {"typed", mustEncodePage(b, slots)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.raw)))
			for i := 0; i < b.N; i++ {
				if _, err := decodePage(c.raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPageEncode(b *testing.B) {
	defer runtime.KeepAlive(serverHeap())
	slots := benchShapedPage(1)
	for _, c := range []struct {
		name   string
		encode func(testing.TB, []Row) []byte
	}{{"gob", encodeLegacyPage}, {"typed", mustEncodePage}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.encode(b, slots))))
			for i := 0; i < b.N; i++ {
				c.encode(b, slots)
			}
		})
	}
}

// TestPagePathImports holds the page path to what the codec was written for:
// pagecodec.go imports no gob, reflect or fmt, one function calls the gob
// page decoder, and nothing outside tests encodes a page with gob.
func TestPagePathImports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacyCallers := 0
	for name, file := range pkgs["engine"].Files {
		if name == "pagecodec.go" {
			for _, imp := range file.Imports {
				switch path, _ := strconv.Unquote(imp.Path.Value); path {
				case "encoding/gob", "reflect", "fmt":
					t.Errorf("pagecodec.go imports %s", path)
				}
			}
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "decodeLegacyPage" {
					legacyCallers++
				}
			}
			return true
		})
	}
	if legacyCallers != 1 {
		t.Errorf("decodeLegacyPage has %d call sites, want 1", legacyCallers)
	}
}
