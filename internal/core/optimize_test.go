package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// branchyCVD commits a mainline with periodic branches under the partitioned
// model, returning the CVD and all version ids.
func branchyCVD(t *testing.T, versions int) (*CVD, []vgraph.VersionID) {
	t.Helper()
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{PrimaryKey: []string{"protein1", "protein2"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var rows []engine.Row
	next := 0
	add := func(n int) {
		for i := 0; i < n; i++ {
			rows = append(rows, protRow(fmt.Sprintf("P%05d", next), "Q", rng.Int63n(10), 0, 0))
			next++
		}
	}
	add(20)
	v, err := c.Commit(context.Background(), rows, nil, "root")
	if err != nil {
		t.Fatal(err)
	}
	vids := []vgraph.VersionID{v}
	for i := 1; i < versions; i++ {
		parent := vids[len(vids)-1]
		if i%5 == 0 {
			parent = vids[rng.Intn(len(vids))]
			rows, err = c.Checkout(parent)
			if err != nil {
				t.Fatal(err)
			}
		}
		add(5)
		v, err := c.Commit(context.Background(), rows, []vgraph.VersionID{parent}, "step")
		if err != nil {
			t.Fatal(err)
		}
		vids = append(vids, v)
	}
	return c, vids
}

// repartition plans under γ = gammaFactor·|R| and runs the whole plan in
// place, returning it with the rows it moved.
func repartition(t *testing.T, c *CVD, gammaFactor float64) (*RepartitionPlan, int64) {
	t.Helper()
	plan, err := c.PlanRepartition(gammaFactor, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := c.ApplyRepartition(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, moved
}

func TestOptimizePartitionsAndPreservesCheckouts(t *testing.T) {
	c, vids := branchyCVD(t, 40)
	pm := c.model
	if len(pm.partIDs) != 1 {
		t.Fatalf("pre-optimize partitions = %d", len(pm.partIDs))
	}
	// Snapshot all version contents.
	before := map[vgraph.VersionID]int{}
	for _, v := range vids {
		rows, err := c.Checkout(v)
		if err != nil {
			t.Fatal(err)
		}
		before[v] = len(rows)
	}
	res, moved := repartition(t, c, 2.0)
	if res.Groups < 2 {
		t.Fatalf("optimize produced %d partitions", res.Groups)
	}
	if len(pm.partIDs) != res.Groups {
		t.Fatalf("physical partitions %d != plan %d", len(pm.partIDs), res.Groups)
	}
	// Every checkout is unchanged.
	for _, v := range vids {
		rows, err := c.Checkout(v)
		if err != nil {
			t.Fatalf("checkout %d after optimize: %v", v, err)
		}
		if len(rows) != before[v] {
			t.Fatalf("v%d: %d rows after optimize, want %d", v, len(rows), before[v])
		}
	}
	// Storage within budget (in records).
	if pm.storageRecs > res.Gamma {
		t.Fatalf("S = %d exceeds γ = %d", pm.storageRecs, res.Gamma)
	}
	// A completed plan hands its δ* and γ to online placement.
	if st := pm.PartitionStatus(); st.DeltaStar != res.Delta || st.GammaRecords != res.Gamma {
		t.Fatalf("online params (%g, %d) not the plan's (%g, %d)", st.DeltaStar, st.GammaRecords, res.Delta, res.Gamma)
	}
	// A second optimize at the same budget is a near no-op.
	if _, moved2 := repartition(t, c, 2.0); moved2 > moved {
		t.Fatalf("re-optimize moved %d rows, the first only %d", moved2, moved)
	}
}

func TestOnlinePlacementAfterOptimize(t *testing.T) {
	c, vids := branchyCVD(t, 30)
	repartition(t, c, 1.5)
	pm := c.model

	// With a low δ*, a commit whose overlap with its parent exceeds δ*·|R|
	// joins the parent's partition (the Section 4.3 rule).
	pm.SetOnlineParams(0.05, 1<<40)
	nBefore := len(pm.partIDs)
	// The mainline tip shares nearly all of |R| with its child.
	biggest := vids[0]
	var biggestN int
	for _, v := range vids {
		info, err := c.Info(v)
		if err != nil {
			t.Fatal(err)
		}
		if info.NumRecords > biggestN {
			biggest, biggestN = v, info.NumRecords
		}
	}
	rows, err := c.Checkout(biggest)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Commit(context.Background(), rows, []vgraph.VersionID{biggest}, "online-join")
	if err != nil {
		t.Fatal(err)
	}
	pNew, ok := pm.PartitionOf(v)
	if !ok {
		t.Fatal("new version unplaced")
	}
	pParent, _ := pm.PartitionOf(biggest)
	if pNew != pParent {
		t.Fatalf("high-overlap commit went to partition %d, parent in %d", pNew, pParent)
	}
	if len(pm.partIDs) != nBefore {
		t.Fatal("partition count changed unexpectedly")
	}
	got, err := c.Checkout(v)
	if err != nil || len(got) != len(rows) {
		t.Fatalf("checkout new version: %d rows, %v", len(got), err)
	}

	// With δ* near 1 and storage headroom, a low-overlap commit opens its
	// own partition.
	pm.SetOnlineParams(0.99, 1<<40)
	small := []engine.Row{protRow("Z", "Z", 1, 1, 1)}
	v2, err := c.Commit(context.Background(), small, []vgraph.VersionID{v}, "online-split")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := pm.PartitionOf(v2)
	if p2 == pNew {
		t.Fatal("low-overlap commit should open a new partition")
	}
	if _, err := c.Checkout(v2); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeWorksOnDefaultCVD: a CVD created without naming a model is
// partitioned from the start, so it repartitions.
func TestOptimizeWorksOnDefaultCVD(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Commit(context.Background(), []engine.Row{protRow("A", "B", 1, 2, 3)}, nil, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background(), []engine.Row{protRow("C", "D", 4, 5, 6)}, []vgraph.VersionID{v1}, "v2"); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRepartition(2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyRepartition(plan); err != nil {
		t.Fatal(err)
	}
	if got := len(c.model.partIDs); got != plan.Groups {
		t.Fatalf("%d partitions after optimize, plan had %d groups", got, plan.Groups)
	}
}

// TestOptimizeEmptyCVD: the repartition planner refuses a CVD without
// versions.
func TestOptimizeEmptyCVD(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "d", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanRepartition(2.0, 0); err == nil {
		t.Fatal("optimize of empty CVD accepted")
	}
}

func TestPartitionedReloadKeepsLayout(t *testing.T) {
	c, vids := branchyCVD(t, 25)
	repartition(t, c, 2.0)
	pm := c.model
	wantParts := len(pm.partIDs)

	path := t.TempDir() + "/s.gob"
	if err := c.db.Save(path); err != nil {
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
	pm2 := c2.model
	if len(pm2.partIDs) != wantParts {
		t.Fatalf("partitions after reload = %d, want %d", len(pm2.partIDs), wantParts)
	}
	for _, v := range vids {
		p1, _ := pm.PartitionOf(v)
		p2, ok := pm2.PartitionOf(v)
		if !ok || p1 != p2 {
			t.Fatalf("placement of v%d changed on reload", v)
		}
		if _, err := c2.Checkout(v); err != nil {
			t.Fatalf("checkout %d after reload: %v", v, err)
		}
	}
}

func TestCheckoutCostDropsAfterOptimize(t *testing.T) {
	c, _ := branchyCVD(t, 50)
	pm := c.model
	before := pm.CheckoutCost()
	repartition(t, c, 2.0)
	after := pm.CheckoutCost()
	if after >= before {
		t.Fatalf("Cavg did not drop: %.0f -> %.0f", before, after)
	}
}

func TestOptimizeWeighted(t *testing.T) {
	c, vids := branchyCVD(t, 40)
	freq := c.RecencyWeights(0.25, 20)
	if len(freq) != len(vids) {
		t.Fatalf("weights for %d versions, want %d", len(freq), len(vids))
	}
	plan, err := c.PlanRepartitionWeighted(2.0, freq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Groups < 1 {
		t.Fatal("no partitions")
	}
	if _, err := c.ApplyRepartition(plan); err != nil {
		t.Fatal(err)
	}
	// All versions remain checkable.
	for _, v := range vids {
		if _, err := c.Checkout(v); err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
	}
	// Hot (recent) versions should sit in partitions no larger than the
	// average cold partition.
	pm := c.model
	var hotCost, coldCost, hotN, coldN int64
	for _, v := range vids {
		p, _ := pm.PartitionOf(v)
		if freq[v] > 1 {
			hotCost += pm.partRecs[p].Cardinality()
			hotN++
		} else {
			coldCost += pm.partRecs[p].Cardinality()
			coldN++
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Fatal("weight split degenerate")
	}
	if hotCost/hotN > 2*(coldCost/coldN) {
		t.Fatalf("hot versions average %d records/partition vs cold %d",
			hotCost/hotN, coldCost/coldN)
	}
}

// TestOptimizeWeightedRequiresPartitionedModel: every CVD is partitioned
// now, so what the weighted planner still requires is a partitioned layout
// with versions to place; an empty default CVD is refused.
func TestOptimizeWeightedRequiresPartitionedModel(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "w", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanRepartitionWeighted(2.0, nil, 0); err == nil {
		t.Fatal("weighted optimize of empty CVD accepted")
	}
}

func TestMaintainPartitions(t *testing.T) {
	c, vids := branchyCVD(t, 40)
	// Fresh CVD: everything in one partition, so Cavg far exceeds the best.
	res, err := c.PlanMaintenance(2.0, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) == 0 {
		t.Fatalf("expected migration: Cavg=%.0f best=%.0f", res.Cavg, res.EstCheckout)
	}
	if _, err := c.ApplyRepartition(res); err != nil {
		t.Fatal(err)
	}
	// Immediately after, the layout is within tolerance.
	res2, err := c.PlanMaintenance(2.0, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Batches) != 0 {
		t.Fatal("second maintenance should be a no-op")
	}
	if res2.Cavg > 1.2*res2.EstCheckout+1e-6 {
		t.Fatalf("tolerance violated after migration: %.0f vs %.0f", res2.Cavg, res2.EstCheckout)
	}
	for _, v := range vids {
		if _, err := c.Checkout(v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaintainPartitionsRequiresModel: every CVD is partitioned now, so
// what maintenance still requires is a partitioned layout with versions to
// place; an empty default CVD is refused.
func TestMaintainPartitionsRequiresModel(t *testing.T) {
	db := engine.NewDB()
	c, err := Init(db, "m", protCols(), InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanMaintenance(2.0, 1.5, 0); err == nil {
		t.Fatal("maintenance of empty CVD accepted")
	}
}
