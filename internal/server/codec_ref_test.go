package server

import (
	"encoding/json"
	"fmt"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/engine"
)

// The any-based codec the server shipped before the typed one: rows boxed
// into [][]any for encoding/json to reflect over, commit bodies decoded into
// [][]any with json.Number cells. It lives on here only as the reference the
// append-style encoder and the span scanner are diffed against.

// encodeValue renders one cell as a JSON-marshalable value.
func encodeValue(v orpheusdb.Value) any {
	switch v.K {
	case engine.KindNull:
		return nil
	case engine.KindInt:
		return v.I
	case engine.KindFloat:
		return v.F
	case engine.KindString:
		return v.S
	case engine.KindBool:
		return v.I != 0
	case engine.KindIntArray:
		if v.A == nil {
			return []int64{}
		}
		return v.A
	case engine.KindBitmap:
		// Bitmap membership encodes as the sorted element array, so clients
		// see the same shape whichever representation the model stores.
		if v.B == nil {
			return []int64{}
		}
		return v.B.ToSlice()
	}
	return v.String()
}

func encodeRow(r orpheusdb.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		out[i] = encodeValue(v)
	}
	return out
}

func encodeRows(rows []orpheusdb.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = encodeRow(r)
	}
	return out
}

// decodeValue converts one JSON value (as produced by a json.Decoder with
// UseNumber) into a typed cell of the given kind. null is NULL for every
// kind.
func decodeValue(x any, k engine.Kind) (orpheusdb.Value, error) {
	if x == nil {
		return orpheusdb.Null(), nil
	}
	switch k {
	case engine.KindInt:
		n, ok := x.(json.Number)
		if !ok {
			return orpheusdb.Value{}, fmt.Errorf("want integer, got %T", x)
		}
		i, err := n.Int64()
		if err != nil {
			return orpheusdb.Value{}, fmt.Errorf("want integer, got %v", n)
		}
		return orpheusdb.Int(i), nil
	case engine.KindFloat:
		n, ok := x.(json.Number)
		if !ok {
			return orpheusdb.Value{}, fmt.Errorf("want number, got %T", x)
		}
		f, err := n.Float64()
		if err != nil {
			return orpheusdb.Value{}, fmt.Errorf("want number, got %v", n)
		}
		return orpheusdb.Float(f), nil
	case engine.KindString:
		s, ok := x.(string)
		if !ok {
			return orpheusdb.Value{}, fmt.Errorf("want string, got %T", x)
		}
		return orpheusdb.String(s), nil
	case engine.KindBool:
		b, ok := x.(bool)
		if !ok {
			return orpheusdb.Value{}, fmt.Errorf("want boolean, got %T", x)
		}
		return orpheusdb.Bool(b), nil
	case engine.KindIntArray:
		arr, ok := x.([]any)
		if !ok {
			return orpheusdb.Value{}, fmt.Errorf("want array of integers, got %T", x)
		}
		out := make([]int64, len(arr))
		for i, el := range arr {
			n, ok := el.(json.Number)
			if !ok {
				return orpheusdb.Value{}, fmt.Errorf("array element %d: want integer, got %T", i, el)
			}
			v, err := n.Int64()
			if err != nil {
				return orpheusdb.Value{}, fmt.Errorf("array element %d: want integer, got %v", i, n)
			}
			out[i] = v
		}
		return orpheusdb.Array(out), nil
	}
	return orpheusdb.Value{}, fmt.Errorf("unsupported column kind %v", k)
}

// decodeRows converts wire rows into typed rows under the given schema.
func decodeRows(raw [][]any, cols []orpheusdb.Column) ([]orpheusdb.Row, error) {
	rows := make([]orpheusdb.Row, len(raw))
	for i, rr := range raw {
		if len(rr) != len(cols) {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(rr), len(cols))
		}
		row := make(orpheusdb.Row, len(cols))
		for j, x := range rr {
			v, err := decodeValue(x, cols[j].Type)
			if err != nil {
				return nil, fmt.Errorf("row %d, column %q: %w", i, cols[j].Name, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows, nil
}

// refConflictJSON is conflictJSON as it was when its rows were boxed.
type refConflictJSON struct {
	Key    string  `json:"key"`
	Kind   string  `json:"kind"`
	Base   [][]any `json:"base,omitempty"`
	Ours   [][]any `json:"ours,omitempty"`
	Theirs [][]any `json:"theirs,omitempty"`
}

func refConflictsToJSON(conflicts []orpheusdb.MergeConflict) []refConflictJSON {
	out := make([]refConflictJSON, 0, len(conflicts))
	for _, c := range conflicts {
		cj := refConflictJSON{Key: c.Key, Kind: c.Kind()}
		if c.Base != nil {
			cj.Base = encodeRows([]orpheusdb.Row{c.Base.Row})
		}
		if c.Ours != nil {
			cj.Ours = encodeRows([]orpheusdb.Row{c.Ours.Row})
		}
		if c.Theirs != nil {
			cj.Theirs = encodeRows([]orpheusdb.Row{c.Theirs.Row})
		}
		out = append(out, cj)
	}
	return out
}
