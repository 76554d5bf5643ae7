package experiments

import (
	"io"
	"testing"
	"time"

	"orpheusdb/internal/engine"
	"orpheusdb/internal/partition"
)

// quickCfg shrinks the sweeps for test time.
func quickCfg() SweepConfig {
	return SweepConfig{
		Scale:      0.003,
		Seed:       42,
		Samples:    8,
		Budget:     30 * time.Second,
		LyrePoints: 4,
		AggloPoint: 3,
		KMeansPts:  3,
	}
}

func TestTable2Shapes(t *testing.T) {
	rep, datasets, err := Table2([]string{"SCI_1M", "CUR_1M"}, 0.004, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 || len(datasets) != 2 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	sci := datasets[0].Stats()
	cur := datasets[1].Stats()
	if sci.DupR != 0 {
		t.Fatal("SCI must have no duplicated records")
	}
	if cur.DupR <= 0 {
		t.Fatal("CUR must have duplicated records")
	}
	rep.Print(io.Discard)
}

func TestFig3Shapes(t *testing.T) {
	// Wall-clock comparisons are retried: tiny datasets plus background
	// load make single measurements noisy. Storage is deterministic.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		rows, reps, err := Fig3([]string{"SCI_5M"}, 0.004, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("model rows: %d", len(rows))
		}
		byModel := map[ModelKind]Fig3Row{}
		for _, r := range rows {
			byModel[r.Model] = r
		}
		for _, rep := range reps {
			rep.Print(io.Discard)
		}
		// Figure 3a: a-table-per-version needs several times the storage
		// of the split models.
		tpv := byModel[TablePerVersionModel]
		rlist := byModel[SplitByRlistModel]
		if tpv.StorageBytes < 3*rlist.StorageBytes {
			t.Fatalf("storage: tpv %d vs rlist %d — expected ~10x gap",
				tpv.StorageBytes, rlist.StorageBytes)
		}
		// Figure 3b: split-by-rlist commits faster than combined-table and
		// split-by-vlist (no per-record array appends, no full scan).
		combined := byModel[CombinedTableModel]
		vlist := byModel[SplitByVlistModel]
		switch {
		case rlist.CommitTime > combined.CommitTime:
			lastErr = "rlist commit slower than combined: " +
				rlist.CommitTime.String() + " vs " + combined.CommitTime.String()
		case rlist.CommitTime > vlist.CommitTime:
			lastErr = "rlist commit slower than vlist: " +
				rlist.CommitTime.String() + " vs " + vlist.CommitTime.String()
		default:
			return // shape holds
		}
	}
	t.Fatal(lastErr)
}

func TestFig9LyreSplitOnFrontier(t *testing.T) {
	pts, rep, err := Fig9("SCI_1M", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep.Print(io.Discard)
	// Shape: for LYRESPLIT, estimated checkout cost decreases as estimated
	// storage grows along the δ sweep.
	var lyre []SweepPoint
	for _, p := range pts {
		if p.Algorithm == "LyreSplit" {
			lyre = append(lyre, p)
		}
	}
	if len(lyre) < 3 {
		t.Fatalf("lyre points: %d", len(lyre))
	}
	first, last := lyre[0], lyre[len(lyre)-1]
	if last.EstStorage < first.EstStorage {
		t.Fatal("storage should grow with δ")
	}
	if last.EstCheckout > first.EstCheckout {
		t.Fatal("checkout cost should fall with δ")
	}
}

func TestFig1011LyreSplitFastest(t *testing.T) {
	rows, rep, err := Fig1011("SCI_1M", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep.Print(io.Discard)
	byAlgo := map[string]Fig1011Row{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = r
	}
	ls := byAlgo["LyreSplit"]
	if ls.TotalTime > byAlgo["AGGLO"].TotalTime {
		t.Fatalf("LYRESPLIT %v slower than AGGLO %v", ls.TotalTime, byAlgo["AGGLO"].TotalTime)
	}
	if ls.TotalTime > byAlgo["KMEANS"].TotalTime {
		t.Fatalf("LYRESPLIT %v slower than KMEANS %v", ls.TotalTime, byAlgo["KMEANS"].TotalTime)
	}
}

func TestFig1213PartitioningSpeedsUpCheckout(t *testing.T) {
	rows, rep, err := Fig1213([]string{"SCI_1M"}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep.Print(io.Discard)
	r := rows[0]
	// Figures 12/13: partitioned checkout beats unpartitioned; storage
	// grows but stays within the budget's ballpark.
	if r.CheckoutGamma20 >= r.CheckoutNoPart {
		t.Fatalf("γ=2 checkout %v not faster than none %v", r.CheckoutGamma20, r.CheckoutNoPart)
	}
	if r.StorageGamma20 < r.StorageNoPart {
		t.Fatal("partitioned storage should exceed single-partition storage")
	}
	if r.StorageGamma15 > r.StorageGamma20 {
		t.Fatal("γ=1.5 storage should not exceed γ=2 storage")
	}
}

func TestFig1415OnlineAndMigration(t *testing.T) {
	cfg := DefaultFig1415Config()
	cfg.Versions = 250
	cfg.OpsPerCommit = 20
	cfg.Branches = 25
	cfg.SampleEvery = 10
	cfg.Mus = []float64{1.05, 2.0}
	runs, reps, err := Fig1415(1.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rep.Print(io.Discard)
	}
	var tightMigs, looseMigs int
	var naiveRecords, smartRecords int64
	for _, run := range runs {
		if run.Naive {
			for _, m := range run.Migrations {
				naiveRecords += m.PlanRecords
			}
			continue
		}
		switch run.Mu {
		case 1.05:
			tightMigs = len(run.Migrations)
			for _, m := range run.Migrations {
				smartRecords += m.PlanRecords
			}
		case 2.0:
			looseMigs = len(run.Migrations)
		}
		// Trajectory stays within µ of the best cost.
		for _, p := range run.Trajectory {
			if p.BestCavg > 0 && p.Cavg > run.Mu*p.BestCavg*1.02 {
				t.Fatalf("µ=%.2f: Cavg %.0f above tolerance at commit %d", run.Mu, p.Cavg, p.Commit)
			}
		}
	}
	if tightMigs < looseMigs {
		t.Fatalf("µ=1.05 migrated %d times, µ=2 %d times", tightMigs, looseMigs)
	}
	if tightMigs > 0 && naiveRecords > 0 && smartRecords > naiveRecords {
		t.Fatalf("intelligent migration moved more records (%d) than naive (%d)", smartRecords, naiveRecords)
	}
}

func TestFig19CostModel(t *testing.T) {
	cfg := Fig19Config{
		TableSizes: []int{4096, 16384},
		RlistSizes: []int{64, 4096},
		NumAttrs:   6,
		Seed:       42,
	}
	pts, reps, err := Fig19(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rep.Print(io.Discard)
	}
	find := func(m engine.JoinMethod, clustered string, rows, rl int) Fig19Point {
		for _, p := range pts {
			if p.Method == m && p.Clustered == clustered && p.TableRows == rows && p.RlistLen == rl {
				return p
			}
		}
		t.Fatalf("missing point %v/%s/%d/%d", m, clustered, rows, rl)
		return Fig19Point{}
	}
	// Hash join: modeled cost linear in |Rk|, independent of layout and
	// rlist size.
	h1 := find(engine.HashJoin, "rid", 4096, 64)
	h2 := find(engine.HashJoin, "rid", 16384, 64)
	if h2.IOCost < 3*h1.IOCost {
		t.Fatalf("hash join not linear: %d -> %d", h1.IOCost, h2.IOCost)
	}
	hpk := find(engine.HashJoin, "pk", 16384, 64)
	if hpk.IOCost != h2.IOCost {
		t.Fatalf("hash join layout-sensitive: %d vs %d", hpk.IOCost, h2.IOCost)
	}
	// Merge join collapses on pk-clustered tables (random per-row access).
	mRid := find(engine.MergeJoin, "rid", 16384, 64)
	mPk := find(engine.MergeJoin, "pk", 16384, 64)
	if mPk.IOCost < 20*mRid.IOCost {
		t.Fatalf("pk-clustered merge join should be far costlier: %d vs %d", mPk.IOCost, mRid.IOCost)
	}
	// Dense INLJ on rid-clustered degrades to a sequential scan.
	inljDense := find(engine.IndexNestedLoopJoin, "rid", 4096, 4096)
	if inljDense.RandPages > 1 {
		t.Fatalf("dense INLJ should be sequential: %d random pages", inljDense.RandPages)
	}
	// Sparse INLJ on pk-clustered pays one random fetch per probe.
	inljSparse := find(engine.IndexNestedLoopJoin, "pk", 16384, 64)
	if inljSparse.RandPages < 32 {
		t.Fatalf("sparse INLJ should be random: %d random pages", inljSparse.RandPages)
	}
}

func TestFig2023Reports(t *testing.T) {
	pts, _, err := Fig9("SCI_1M", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	est, real := Fig2023(pts)
	if len(est.Rows) != len(pts) || len(real.Rows) != len(pts) {
		t.Fatal("report row counts wrong")
	}
	est.Print(io.Discard)
	real.Print(io.Discard)
}

func TestPhysStoreCheckoutMatchesVersions(t *testing.T) {
	_, datasets, err := Table2([]string{"SCI_1M"}, 0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := datasets[0]
	b := d.Bipartite()
	ps, err := BuildPhysStore(d, partition.NewSinglePartition(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Versions()[:10] {
		_, n, err := ps.Checkout(v, engine.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(b.Records(v)) {
			t.Fatalf("v%d: %d rows, want %d", v, n, len(b.Records(v)))
		}
	}
}
