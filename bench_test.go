package orpheusdb

// Microbenchmarks with no other home: the rlist range-encoding ablation and
// the slice-vs-bitmap membership comparison. Everything that measures the
// served system lives in bench/ (`bash bench/run.sh`); the paper's tables
// and figures are reproduced by `cmd/orpheus-bench`.
//
//	go test -run=NONE -bench=. -benchmem .

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"orpheusdb/internal/benchgen"
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
)

// BenchmarkRangeEncoding is the compression ablation the paper's Section 3.2
// footnote suggests: range-encoding the rlist arrays versus storing them
// plain. The ratio depends on the workload: insert-heavy histories keep rid
// runs intact and compress well; update-heavy ones (like SCI's default 90%
// updates) punch holes in every run and barely compress.
func BenchmarkRangeEncoding(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		updateFrac float64
	}{
		{"insert-heavy", 0.05},
		{"update-heavy", 0.9},
	} {
		d := benchgen.Generate(benchgen.Config{
			Workload:      benchgen.SCI,
			TargetRecords: 40_000,
			Branches:      50,
			OpsPerCommit:  40,
			UpdateFrac:    cfg.updateFrac,
			Seed:          42,
		})
		bip := d.Bipartite()
		b.Run(cfg.name, func(b *testing.B) {
			var plain, encoded int64
			for i := 0; i < b.N; i++ {
				plain, encoded = 0, 0
				for _, v := range bip.Versions() {
					recs := bip.Records(v)
					rlist := make([]int64, len(recs))
					for j, r := range recs {
						rlist[j] = int64(r)
					}
					enc := engine.EncodeRanges(rlist)
					plain += int64(len(rlist))
					encoded += int64(len(enc))
				}
			}
			b.ReportMetric(float64(plain)/float64(encoded), "compression-ratio")
		})
	}
}

// --- rlist-vs-bitmap membership microbenchmarks ------------------------------
//
// BenchmarkRlistVsBitmap compares the two membership representations on the
// operations every versioned workload reduces to: materializing a version's
// membership (checkout), two-sided diff, and 2-way/8-way multi-version
// intersection, at 10k and 100k records. The slice arm reproduces the seed's
// []int64 implementation (sorted-merge intersects, map-based diffs); the
// bitmap arm is the internal/bitmap algebra the engine now stores.

// membershipFixture builds 8 overlapping version rlists over ~n records:
// a dense shared core (90% of n) plus a sparse per-version tail — the shape
// OrpheusDB commits produce (dense rid ranges with per-branch additions).
// It also loads the union of the rlists into an engine table, the partition
// the checkout cell fetches from.
func membershipFixture(n int) (slices [][]int64, bitmaps []*bitmap.Bitmap, tab *engine.Table) {
	core := make([]int64, 0, n*9/10)
	for r := int64(1); r <= int64(n*9/10); r++ {
		core = append(core, r)
	}
	rng := rand.New(rand.NewSource(99))
	for v := 0; v < 8; v++ {
		rl := append([]int64(nil), core...)
		seen := make(map[int64]bool)
		for len(seen) < n/10 {
			// Sparse tail: scattered rids beyond the shared core.
			r := int64(n) + rng.Int63n(int64(n)*4)
			if !seen[r] {
				seen[r] = true
				rl = append(rl, r)
			}
		}
		sort.Slice(rl, func(i, j int) bool { return rl[i] < rl[j] })
		slices = append(slices, rl)
		bitmaps = append(bitmaps, bitmap.FromSorted(rl))
	}
	db := engine.NewDB()
	tab, err := db.CreateTable("part", []engine.Column{
		{Name: "rid", Type: engine.KindInt},
		{Name: "val", Type: engine.KindInt},
	})
	if err != nil {
		panic(err)
	}
	union := bitmap.OrAll(bitmaps...)
	for _, rid := range union.ToSlice() {
		if _, err := tab.Insert(engine.Row{engine.IntValue(rid), engine.IntValue(rid * 3)}); err != nil {
			panic(err)
		}
	}
	return slices, bitmaps, tab
}

// Seed-style slice membership operations.

func sliceIntersect(a, b []int64) []int64 {
	out := make([]int64, 0)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func sliceDiff(a, b []int64) (onlyA, onlyB []int64) {
	inB := make(map[int64]bool, len(b))
	for _, r := range b {
		inB[r] = true
	}
	inA := make(map[int64]bool, len(a))
	for _, r := range a {
		inA[r] = true
	}
	for _, r := range a {
		if !inB[r] {
			onlyA = append(onlyA, r)
		}
	}
	for _, r := range b {
		if !inA[r] {
			onlyB = append(onlyB, r)
		}
	}
	return onlyA, onlyB
}

type membershipCase struct {
	name string
	run  func(slices [][]int64, bitmaps []*bitmap.Bitmap) int
}

func membershipCases(tab *engine.Table) []membershipCase {
	return []membershipCase{
		// checkout fetches one version's rows from its partition table. The
		// slice arm is the seed's plan: materialize the rlist (defensive
		// copy, as Rlist must) and hash-join it against the scan, paying a
		// map build per checkout. The bitmap arm hands the membership set
		// straight to the probe scan (JoinRidsSet), skipping both.
		{"checkout", func(s [][]int64, bm []*bitmap.Bitmap) int {
			if s != nil {
				rows, err := engine.JoinRids(tab, 0, append([]int64(nil), s[0]...), engine.HashJoin)
				if err != nil {
					return -1
				}
				return len(rows)
			}
			rows, err := engine.JoinRidsSet(tab, 0, bm[0], engine.HashJoin)
			if err != nil {
				return -1
			}
			return len(rows)
		}},
		{"diff", func(s [][]int64, bm []*bitmap.Bitmap) int {
			if s != nil {
				a, b := sliceDiff(s[0], s[1])
				return len(a) + len(b)
			}
			return len(bitmap.AndNot(bm[0], bm[1]).ToSlice()) + len(bitmap.AndNot(bm[1], bm[0]).ToSlice())
		}},
		{"intersect2", func(s [][]int64, bm []*bitmap.Bitmap) int {
			if s != nil {
				return len(sliceIntersect(s[0], s[1]))
			}
			return len(bitmap.And(bm[0], bm[1]).ToSlice())
		}},
		{"intersect8", func(s [][]int64, bm []*bitmap.Bitmap) int {
			if s != nil {
				acc := s[0]
				for _, o := range s[1:] {
					acc = sliceIntersect(acc, o)
				}
				return len(acc)
			}
			acc := bm[0]
			for _, o := range bm[1:] {
				acc = bitmap.And(acc, o)
			}
			return len(acc.ToSlice())
		}},
	}
}

// BenchmarkRlistVsBitmap runs every (operation, scale, representation) cell.
func BenchmarkRlistVsBitmap(b *testing.B) {
	for _, scale := range []int{10_000, 100_000} {
		slices, bitmaps, tab := membershipFixture(scale)
		for _, c := range membershipCases(tab) {
			b.Run(fmt.Sprintf("%s-%dk/slice", c.name, scale/1000), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if c.run(slices, nil) < 0 {
						b.Fatal("impossible")
					}
				}
			})
			b.Run(fmt.Sprintf("%s-%dk/bitmap", c.name, scale/1000), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if c.run(nil, bitmaps) < 0 {
						b.Fatal("impossible")
					}
				}
			})
		}
	}
}
