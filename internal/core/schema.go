package core

import (
	"context"
	"fmt"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// Schema evolution (Section 3.3, single-pool method): the CVD keeps one
// physical pool of columns. New attributes are added with NULLs for old
// records; type conflicts widen the physical column to the more general type
// and add a fresh attribute-table entry; attribute deletions only update the
// version metadata. Each version's visible schema is its attribute-id list.

func (c *CVD) schemaTableName() string { return c.name + "__schema" }

// saveSchema persists the physical column order (attribute ids).
func (c *CVD) saveSchema() error {
	if c.db.HasTable(c.schemaTableName()) {
		if err := c.db.DropTable(c.schemaTableName()); err != nil {
			return err
		}
	}
	t, err := c.db.CreateTable(c.schemaTableName(), []engine.Column{
		{Name: "pos", Type: engine.KindInt},
		{Name: "attr_id", Type: engine.KindInt},
	})
	if err != nil {
		return err
	}
	for i, id := range c.schema {
		if _, err := t.Insert(engine.Row{engine.IntValue(int64(i)), engine.IntValue(id)}); err != nil {
			return err
		}
	}
	return nil
}

// loadSchema restores the physical column order; returns false when the CVD
// predates any schema change (no table saved).
func (c *CVD) loadSchema() (bool, error) {
	t := c.db.Table(c.schemaTableName())
	if t == nil {
		return false, nil
	}
	type entry struct {
		pos int64
		id  int64
	}
	var entries []entry
	t.Scan(func(_ engine.RowID, row engine.Row) bool {
		entries = append(entries, entry{row[0].I, row[1].I})
		return true
	})
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].pos < entries[j-1].pos; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	c.schema = nil
	c.cols = nil
	for _, e := range entries {
		a, ok := c.am.get(e.id)
		if !ok {
			return false, fmt.Errorf("core: CVD %q: unknown attribute id %d", c.name, e.id)
		}
		c.schema = append(c.schema, e.id)
		c.cols = append(c.cols, engine.Column{Name: a.Name, Type: a.Type})
	}
	return true, nil
}

// CommitWithSchema commits rows whose schema (cols) may differ from the
// CVD's: missing attributes become NULL for the new version's records, new
// attributes are added to the pool, and conflicting types are widened. The
// new version's visible schema is exactly cols. It evolves the schema and
// then plans and installs the commit in one go, returning the installed
// plan; the commit phases contribute spans when ctx carries a trace. Schema
// evolution changes the CVD before the commit can be planned, so unlike
// Commit it cannot be split around a WAL append.
func (c *CVD) CommitWithSchema(ctx context.Context, cols []engine.Column, rows []engine.Row, parents []vgraph.VersionID, msg string) (*CommitPlan, error) {
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("core: %s: commit row %d has %d values, want %d", c.name, i, len(r), len(cols))
		}
	}
	// Resolve each incoming column to a physical position and an
	// attribute id, evolving the pool as needed.
	physPos := make([]int, len(cols)) // incoming col -> physical position
	visible := make([]int64, len(cols))
	for i, col := range cols {
		at := -1
		for j, pc := range c.cols {
			if pc.Name == col.Name {
				at = j
				break
			}
		}
		if at < 0 {
			// Brand-new attribute: extend the pool; old records get NULL.
			id, err := c.am.add(col.Name, col.Type)
			if err != nil {
				return nil, err
			}
			if err := c.model.AddColumn(col); err != nil {
				return nil, err
			}
			c.cols = append(c.cols, col)
			c.schema = append(c.schema, id)
			physPos[i] = len(c.cols) - 1
			visible[i] = id
			continue
		}
		physPos[i] = at
		if c.cols[at].Type == col.Type {
			visible[i] = c.schema[at]
			continue
		}
		// Type conflict: widen the pool column, register the new
		// (name, type) attribute entry.
		wide := engine.MoreGeneral(c.cols[at].Type, col.Type)
		id := c.am.find(col.Name, wide)
		if id == 0 {
			var err error
			id, err = c.am.add(col.Name, wide)
			if err != nil {
				return nil, err
			}
		}
		if wide != c.cols[at].Type {
			if err := c.model.AlterColumnType(col.Name, wide); err != nil {
				return nil, err
			}
			c.cols[at].Type = wide
			c.schema[at] = id
		}
		visible[i] = id
	}
	if err := c.saveSchema(); err != nil {
		return nil, err
	}

	// Re-shape rows onto the physical pool, widening values as needed.
	phys := make([]engine.Row, len(rows))
	for i, r := range rows {
		pr := make(engine.Row, len(c.cols))
		for j := range pr {
			pr[j] = engine.NullValue()
		}
		for j, v := range r {
			p := physPos[j]
			if !v.IsNull() && v.K != c.cols[p].Type {
				v = widenValue(v, c.cols[p].Type)
			}
			pr[p] = v
		}
		phys[i] = pr
	}

	p, err := c.PlanCommit(ctx, phys, nil, parents, msg)
	if err != nil {
		return nil, err
	}
	p.attributes = visible
	if err := c.InstallCommit(ctx, p); err != nil {
		return nil, err
	}
	return p, nil
}

// widenValue converts v to the wider kind k.
func widenValue(v engine.Value, k engine.Kind) engine.Value {
	switch k {
	case engine.KindFloat:
		return engine.FloatValue(v.AsFloat())
	case engine.KindString:
		return engine.StringValue(v.String())
	}
	return v
}

// VersionColumns returns the visible schema of a version: its attribute list
// resolved against the attribute table, in physical-pool order with
// positions.
func (c *CVD) VersionColumns(v vgraph.VersionID) ([]engine.Column, []int, error) {
	info, err := c.vm.info(v)
	if err != nil {
		return nil, nil, err
	}
	nameOf := func(id int64) (string, bool) {
		a, ok := c.am.get(id)
		return a.Name, ok
	}
	var cols []engine.Column
	var pos []int
	for _, id := range info.Attributes {
		name, ok := nameOf(id)
		if !ok {
			return nil, nil, fmt.Errorf("core: %s: unknown attribute id %d", c.name, id)
		}
		for j, pc := range c.cols {
			if pc.Name == name {
				cols = append(cols, pc)
				pos = append(pos, j)
				break
			}
		}
	}
	return cols, pos, nil
}

// CheckoutProjected materializes versions projected onto the union of their
// visible schemas (the merge rule of Section 3.3: the result includes all
// attributes of its parents).
func (c *CVD) CheckoutProjected(vids ...vgraph.VersionID) ([]engine.Column, []engine.Row, error) {
	rows, err := c.Checkout(vids...)
	if err != nil {
		return nil, nil, err
	}
	var cols []engine.Column
	var pos []int
	seen := make(map[string]bool)
	for _, v := range vids {
		vc, vp, err := c.VersionColumns(v)
		if err != nil {
			return nil, nil, err
		}
		for i, col := range vc {
			if !seen[col.Name] {
				seen[col.Name] = true
				cols = append(cols, col)
				pos = append(pos, vp[i])
			}
		}
	}
	out := make([]engine.Row, len(rows))
	for i, r := range rows {
		pr := make(engine.Row, len(pos))
		for j, p := range pos {
			pr[j] = r[p]
		}
		out[i] = pr
	}
	return cols, out, nil
}
