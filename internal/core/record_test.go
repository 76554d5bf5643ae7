package core

import (
	"hash/fnv"
	"math"
	"testing"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
)

// hashRowReference is the EncodeKey-based form HashRow must reproduce byte
// for byte: the h1/h2 columns of every stored __records table were written
// by it, and commits and replay match new rows against them.
func hashRowReference(r engine.Row) RecordHash {
	key := engine.EncodeKey(r...)
	a := fnv.New64a()
	a.Write([]byte(key))
	b := fnv.New64()
	b.Write([]byte{0x5f})
	b.Write([]byte(key))
	return RecordHash{H1: a.Sum64(), H2: b.Sum64()}
}

func TestHashRowMatchesEncodeKeyReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cells := []engine.Value{
		engine.NullValue(),
		engine.IntValue(0),
		engine.IntValue(-1),
		engine.IntValue(math.MaxInt64),
		engine.IntValue(math.MinInt64),
		engine.BoolValue(true),
		engine.BoolValue(false),
		engine.FloatValue(0),
		engine.FloatValue(negZero),
		engine.FloatValue(math.NaN()),
		engine.FloatValue(math.Inf(1)),
		engine.FloatValue(math.Inf(-1)),
		engine.FloatValue(3.141592653589793),
		engine.FloatValue(-1e-300),
		engine.FloatValue(math.MaxFloat64),
		engine.StringValue(""),
		engine.StringValue("plain"),
		engine.StringValue("a\x00b"),
		engine.StringValue("\x00"),
		engine.StringValue("ünïcødé"),
		engine.ArrayValue(nil),
		engine.ArrayValue([]int64{}),
		engine.ArrayValue([]int64{7}),
		engine.ArrayValue([]int64{-3, 0, math.MaxInt64, math.MinInt64}),
		engine.BitmapValue(nil),
		engine.BitmapValue(bitmap.New()),
		engine.BitmapValue(bitmap.FromSlice([]int64{0, 1, 2, 3, 70000, 1 << 40})),
	}
	rows := []engine.Row{{}}
	for _, c := range cells {
		rows = append(rows, engine.Row{c})
	}
	// Every ordered pair, so separators and neighbouring kinds interact
	// (a string ending in 0x00 next to a NULL, an array next to an int...).
	for _, a := range cells {
		for _, b := range cells {
			rows = append(rows, engine.Row{a, b})
		}
	}
	rows = append(rows, engine.Row{
		engine.IntValue(42), engine.StringValue("sci\x00row"), engine.FloatValue(negZero),
		engine.NullValue(), engine.ArrayValue([]int64{1, 2}), engine.BoolValue(true),
	})
	for i, r := range rows {
		if got, want := HashRow(r), hashRowReference(r); got != want {
			t.Fatalf("row %d %v: HashRow = %+v, reference = %+v", i, r, got, want)
		}
	}
}

func TestHashRowAllocatesNothing(t *testing.T) {
	row := engine.Row{
		engine.IntValue(42), engine.StringValue("sample"), engine.FloatValue(2.5),
		engine.NullValue(), engine.ArrayValue([]int64{1, -2, 3}), engine.BoolValue(true),
	}
	if n := testing.AllocsPerRun(100, func() { HashRow(row) }); n != 0 {
		t.Fatalf("HashRow allocates %.1f times per row, want 0", n)
	}
}
