package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// checkoutFingerprint canonicalizes a version's contents: sorted row strings,
// so layout changes that only reorder rows compare equal.
func checkoutFingerprint(t *testing.T, c *CVD, v vgraph.VersionID) []string {
	t.Helper()
	rows, err := c.Checkout(v)
	if err != nil {
		t.Fatalf("checkout %d: %v", v, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func fingerprintAll(t *testing.T, c *CVD, vids []vgraph.VersionID) map[vgraph.VersionID][]string {
	t.Helper()
	out := make(map[vgraph.VersionID][]string, len(vids))
	for _, v := range vids {
		out[v] = checkoutFingerprint(t, c, v)
	}
	return out
}

func sameFingerprint(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedRepartitionPreservesCheckouts applies a planned batch sequence
// one batch at a time and verifies every intermediate layout is consistent
// (all versions checkout-able) and the final contents are unchanged.
func TestBatchedRepartitionPreservesCheckouts(t *testing.T) {
	c, vids := branchyCVD(t, 40)
	pm := c.model
	before := fingerprintAll(t, c, vids)
	costBefore := pm.CheckoutCost()

	plan, err := c.PlanRepartition(2.0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Groups < 2 {
		t.Fatalf("plan produced %d groups", plan.Groups)
	}
	if len(plan.Batches) < plan.Groups {
		t.Fatalf("only %d batches for %d groups", len(plan.Batches), plan.Groups)
	}
	if last := plan.Batches[len(plan.Batches)-1]; last.Kind != PartitionBatchDropEmpty {
		t.Fatalf("final batch kind = %s, want drop-empty", last.Kind)
	}
	for i, b := range plan.Batches {
		moved, err := c.ApplyPartitionBatch(b)
		if err != nil {
			t.Fatalf("batch %d (%s): %v", i, b.Kind, err)
		}
		if (b.Kind == PartitionBatchPreload || b.Kind == PartitionBatchGC) && moved > 60 {
			t.Fatalf("batch %d (%s) moved %d rows, bound 60", i, b.Kind, moved)
		}
		// Every batch boundary is a consistent layout: spot-check a spread of
		// versions between batches, all of them at the end.
		for j := 0; j < len(vids); j += 7 {
			if _, err := c.Checkout(vids[j]); err != nil {
				t.Fatalf("after batch %d (%s): checkout %d: %v", i, b.Kind, vids[j], err)
			}
		}
	}
	after := fingerprintAll(t, c, vids)
	for _, v := range vids {
		if !sameFingerprint(before[v], after[v]) {
			t.Fatalf("version %d contents changed across batched migration", v)
		}
	}
	if len(pm.partIDs) != plan.Groups {
		t.Fatalf("physical partitions %d != planned groups %d", len(pm.partIDs), plan.Groups)
	}
	if cost := pm.CheckoutCost(); cost >= costBefore {
		t.Fatalf("Cavg did not drop: %.0f -> %.0f", costBefore, cost)
	}
	st := c.PartitionStatus()
	if len(st.Partitions) != plan.Groups {
		t.Fatalf("status lists %d partitions, want %d", len(st.Partitions), plan.Groups)
	}
	var storage int64
	for _, p := range st.Partitions {
		if p.Versions == 0 {
			t.Fatalf("partition %d kept with no versions", p.ID)
		}
		storage += p.Records
	}
	if storage != st.StorageRecords {
		t.Fatalf("status storage %d != sum of partitions %d", st.StorageRecords, storage)
	}
}

// TestBatchedRepartitionDeterministic applies one plan to two identical CVDs
// and requires identical resulting layouts — the property WAL replay of the
// batch sequence depends on.
func TestBatchedRepartitionDeterministic(t *testing.T) {
	c1, vids := branchyCVD(t, 35)
	c2, _ := branchyCVD(t, 35)
	plan, err := c1.PlanRepartition(2.0, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range plan.Batches {
		if _, err := c1.ApplyPartitionBatch(b); err != nil {
			t.Fatalf("c1 batch %d: %v", i, err)
		}
		if _, err := c2.ApplyPartitionBatch(b); err != nil {
			t.Fatalf("c2 batch %d: %v", i, err)
		}
	}
	pm1 := c1.model
	pm2 := c2.model
	if len(pm1.partIDs) != len(pm2.partIDs) {
		t.Fatalf("partition counts diverged: %d vs %d", len(pm1.partIDs), len(pm2.partIDs))
	}
	for _, v := range vids {
		p1, _ := pm1.PartitionOf(v)
		p2, _ := pm2.PartitionOf(v)
		if p1 != p2 {
			t.Fatalf("placement of v%d diverged: %d vs %d", v, p1, p2)
		}
	}
	if pm1.storageRecs != pm2.storageRecs {
		t.Fatalf("storage diverged: %d vs %d", pm1.storageRecs, pm2.storageRecs)
	}
}

// TestBatchedRepartitionUnderCommits interleaves commits with batch
// application: new versions placed mid-migration must survive the remaining
// batches (gc re-derives its needed set at apply time).
func TestBatchedRepartitionUnderCommits(t *testing.T) {
	c, vids := branchyCVD(t, 30)
	plan, err := c.PlanRepartition(2.0, 50)
	if err != nil {
		t.Fatal(err)
	}
	var midVids []vgraph.VersionID
	for i, b := range plan.Batches {
		if i == len(plan.Batches)/3 || i == 2*len(plan.Batches)/3 {
			parent := vids[len(vids)-1]
			rows, err := c.Checkout(parent)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, protRow(fmt.Sprintf("MID%d", i), "Q", 1, 0, 0))
			v, err := c.Commit(context.Background(), rows, []vgraph.VersionID{parent}, "mid-migration")
			if err != nil {
				t.Fatal(err)
			}
			midVids = append(midVids, v)
		}
		if _, err := c.ApplyPartitionBatch(b); err != nil {
			t.Fatalf("batch %d (%s): %v", i, b.Kind, err)
		}
	}
	for _, v := range append(append([]vgraph.VersionID(nil), vids...), midVids...) {
		if _, err := c.Checkout(v); err != nil {
			t.Fatalf("checkout %d after migration under commits: %v", v, err)
		}
	}
}

// TestPlanPartitionBatchesValidates rejects incomplete or duplicated
// groupings.
func TestPlanPartitionBatchesValidates(t *testing.T) {
	c, vids := branchyCVD(t, 10)
	pm := c.model
	if _, err := pm.PlanPartitionBatches([][]vgraph.VersionID{vids[:5]}, 0); err == nil {
		t.Fatal("plan omitting versions accepted")
	}
	dup := [][]vgraph.VersionID{vids, {vids[0]}}
	if _, err := pm.PlanPartitionBatches(dup, 0); err == nil {
		t.Fatal("plan placing a version twice accepted")
	}
	bogus := [][]vgraph.VersionID{append(append([]vgraph.VersionID(nil), vids...), 9999)}
	if _, err := pm.PlanPartitionBatches(bogus, 0); err == nil {
		t.Fatal("plan naming unknown version accepted")
	}
}

// TestApplyPartitionBatchErrors exercises apply-side validation.
func TestApplyPartitionBatchErrors(t *testing.T) {
	c, vids := branchyCVD(t, 10)
	if _, err := c.ApplyPartitionBatch(PartitionBatch{Kind: PartitionBatchGC, Anchor: 9999}); err == nil {
		t.Fatal("gc with unresolvable anchor accepted")
	}
	if _, err := c.ApplyPartitionBatch(PartitionBatch{Kind: PartitionBatchKind(99)}); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
	// An assign whose Members under-cover a named version must refuse rather
	// than corrupt the layout.
	under := PartitionBatch{
		Kind:     PartitionBatchAssign,
		Anchor:   0,
		Versions: []vgraph.VersionID{vids[len(vids)-1]},
		Members:  nil,
	}
	if _, err := c.ApplyPartitionBatch(under); err == nil {
		t.Fatal("under-covering assign accepted")
	}
	// A CVD created under the legacy default name is a one-partition
	// partitioned CVD, so it reports a layout and batches apply to it.
	db := engine.NewDB()
	legacy, err := Init(db, "p", protCols(), InitOptions{Model: legacySplitByRlist})
	if err != nil {
		t.Fatal(err)
	}
	if st := legacy.PartitionStatus(); len(st.Partitions) != 1 {
		t.Fatalf("legacy-default CVD has %d partitions, want 1", len(st.Partitions))
	}
	if _, err := legacy.ApplyPartitionBatch(PartitionBatch{Kind: PartitionBatchDropEmpty}); err != nil {
		t.Fatal(err)
	}
}
