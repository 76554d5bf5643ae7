package core

import (
	"context"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// Section 3.3's worked example: v1 has four attributes; v2 widens
// cooccurrence to decimal; v3 adds coexpression; the merge v4 carries the
// union with the more general types.
func TestSchemaEvolutionPaperExample(t *testing.T) {
	for _, kind := range initModels() {
		t.Run(string(kind), func(t *testing.T) {
			db := engine.NewDB()
			cols := []engine.Column{
				{Name: "protein1", Type: engine.KindString},
				{Name: "protein2", Type: engine.KindString},
				{Name: "neighborhood", Type: engine.KindInt},
				{Name: "cooccurrence", Type: engine.KindInt},
			}
			c, err := Init(db, "d", cols, InitOptions{Model: kind, PrimaryKey: []string{"protein1", "protein2"}})
			if err != nil {
				t.Fatal(err)
			}
			row := func(p1 string, n int64, co engine.Value, extra ...engine.Value) engine.Row {
				r := engine.Row{engine.StringValue(p1), engine.StringValue("X"), engine.IntValue(n), co}
				return append(r, extra...)
			}
			v1, err := c.Commit(context.Background(), []engine.Row{row("a", 1, engine.IntValue(10))}, nil, "v1")
			if err != nil {
				t.Fatal(err)
			}

			// v2: cooccurrence becomes decimal.
			colsV2 := append([]engine.Column(nil), cols...)
			colsV2[3].Type = engine.KindFloat
			v2p, err := c.CommitWithSchema(context.Background(), colsV2, []engine.Row{
				row("a", 1, engine.FloatValue(10.5)),
			}, []vgraph.VersionID{v1}, "widen cooccurrence")
			if err != nil {
				t.Fatal(err)
			}
			v2 := v2p.Vid
			if c.Columns()[3].Type != engine.KindFloat {
				t.Fatal("pool column not widened")
			}

			// v3 (from v1): adds coexpression.
			colsV3 := append(append([]engine.Column(nil), cols...),
				engine.Column{Name: "coexpression", Type: engine.KindInt})
			v3p, err := c.CommitWithSchema(context.Background(), colsV3, []engine.Row{
				row("a", 1, engine.IntValue(10), engine.IntValue(7)),
			}, []vgraph.VersionID{v1}, "add coexpression")
			if err != nil {
				t.Fatal(err)
			}
			v3 := v3p.Vid
			if len(c.Columns()) != 5 {
				t.Fatalf("pool has %d columns, want 5", len(c.Columns()))
			}

			// v1's visible schema has 4 attributes; v3's has 5.
			c1, _, err := c.VersionColumns(v1)
			if err != nil {
				t.Fatal(err)
			}
			if len(c1) != 4 {
				t.Fatalf("v1 visible schema has %d attrs", len(c1))
			}
			c3, _, err := c.VersionColumns(v3)
			if err != nil {
				t.Fatal(err)
			}
			if len(c3) != 5 || c3[4].Name != "coexpression" {
				t.Fatalf("v3 visible schema wrong: %v", c3)
			}

			// Old records read NULL for the new attribute.
			colsOut, rows, err := c.CheckoutProjected(v1)
			if err != nil {
				t.Fatal(err)
			}
			if len(colsOut) != 4 || len(rows) != 1 || len(rows[0]) != 4 {
				t.Fatalf("projected v1: %v %v", colsOut, rows)
			}

			// Merge carries the union of attributes.
			merged, err := c.Checkout(v2, v3)
			if err != nil {
				t.Fatal(err)
			}
			v4, err := c.Commit(context.Background(), merged, []vgraph.VersionID{v2, v3}, "merge")
			if err != nil {
				t.Fatal(err)
			}
			mCols, mRows, err := c.CheckoutProjected(v2, v3)
			if err != nil {
				t.Fatal(err)
			}
			if len(mCols) != 5 {
				t.Fatalf("merged projection has %d attrs", len(mCols))
			}
			_ = mRows
			_ = v4

			// Attribute deletions are metadata-only: committing with fewer
			// columns keeps the pool intact.
			colsV5 := colsV3[:3] // drop cooccurrence and coexpression
			v5p, err := c.CommitWithSchema(context.Background(), colsV5, []engine.Row{
				{engine.StringValue("b"), engine.StringValue("X"), engine.IntValue(2)},
			}, []vgraph.VersionID{v3}, "drop attrs")
			if err != nil {
				t.Fatal(err)
			}
			v5 := v5p.Vid
			c5, _, err := c.VersionColumns(v5)
			if err != nil {
				t.Fatal(err)
			}
			if len(c5) != 3 {
				t.Fatalf("v5 visible schema has %d attrs", len(c5))
			}
			if len(c.Columns()) != 5 {
				t.Fatal("pool must keep dropped attributes")
			}
		})
	}
}

func TestSchemaEvolutionSurvivesReload(t *testing.T) {
	db := engine.NewDB()
	cols := []engine.Column{
		{Name: "k", Type: engine.KindInt},
		{Name: "v", Type: engine.KindInt},
	}
	c, err := Init(db, "d", cols, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Commit(context.Background(), []engine.Row{{engine.IntValue(1), engine.IntValue(2)}}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	wide := []engine.Column{
		{Name: "k", Type: engine.KindInt},
		{Name: "v", Type: engine.KindFloat},
		{Name: "w", Type: engine.KindString},
	}
	v2p, err := c.CommitWithSchema(context.Background(), wide, []engine.Row{
		{engine.IntValue(1), engine.FloatValue(2.5), engine.StringValue("x")},
	}, []vgraph.VersionID{v1}, "evolve")
	if err != nil {
		t.Fatal(err)
	}
	v2 := v2p.Vid

	path := t.TempDir() + "/s.gob"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(db2, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Columns()) != 3 || c2.Columns()[1].Type != engine.KindFloat {
		t.Fatalf("pool schema lost on reload: %v", c2.Columns())
	}
	rows, err := c2.Checkout(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].S != "x" {
		t.Fatalf("reloaded rows: %v", rows)
	}
	// The attribute table has entries for both v (int) and v (decimal).
	if c2.am.find("v", engine.KindInt) == 0 || c2.am.find("v", engine.KindFloat) == 0 {
		t.Fatal("attribute table lost type history")
	}
}

func TestCommitWithSchemaValidation(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", []engine.Column{{Name: "k", Type: engine.KindInt}}, InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitWithSchema(context.Background(), []engine.Column{{Name: "k", Type: engine.KindInt}},
		[]engine.Row{{engine.IntValue(1), engine.IntValue(2)}}, nil, "arity"); err == nil {
		t.Fatal("row/schema arity mismatch accepted")
	}
}
