package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	orpheusdb "orpheusdb"
)

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.25, 3.25}, {0.95, 9.55}, {1, 10}} {
		if got := quantile(v, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	s := summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Q1 != 1.75 || s.Median != 2.5 || s.Q3 != 3.25 {
		t.Errorf("summarize(4,1,3,2) = %+v", s)
	}
}

// A percentile is printed only when at least ten samples lie beyond it.
func TestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {19, 0.5, false}, {20, 0.5, true}, {200, 0.05, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// spread must match Python's statistics.quantiles(v, n=4), which the driver
// uses: for 1..10 the cuts are 2.75 and 8.25 and the median 5.5.
func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0]
	if got, want := spread([]float64{20, 10, 12, 11}), (18.0-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// scheduleHash runs each client's schedule dry for n ops and hashes what it
// asked for.
func scheduleHash(sp *spec, seed int64, n int) uint64 {
	d := generate(sp, seed, 0.02)
	h := fnv.New64a()
	for _, c := range newClients(2, &env{sp: sp}, d, seed, 0.02) {
		for i := 0; i < n; i++ {
			o := c.next()
			fmt.Fprintf(h, "%d/%d/%s/%v/%d", c.id, o.kind, o.class, o.onSource, o.c)
			for _, s := range o.snaps {
				if s != nil {
					fmt.Fprintf(h, "/%s@%d", s.dataset, s.vid)
				}
			}
			if o.pair != nil {
				fmt.Fprintf(h, "/%s", o.pair.dataset)
			}
			c.done(o, nil)
		}
	}
	return h.Sum64()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, b, other := scheduleHash(sp, 7, 500), scheduleHash(sp, 7, 500), scheduleHash(sp, 8, 500)
		if a != b {
			t.Errorf("%s: the same seed gave two schedules", sp.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", sp.name)
		}
	}
	a, b, other := genSci(3, 0.02), genSci(3, 0.02), genSci(4, 0.02)
	for i := range a.versions {
		if a.versions[i].fp != b.versions[i].fp {
			t.Fatalf("version %d differs between two generations from one seed", i)
		}
		if a.versions[i].parent != other.versions[i].parent {
			t.Fatalf("version %d has another parent under another seed: the tree's shape must not depend on the seed", i)
		}
	}
	if a.versions[0].fp == other.versions[0].fp {
		t.Error("seeds 3 and 4 generated the same records")
	}
}

// The merge oracle against cases worked by hand: k=1 untouched, k=2 changed
// by the target, k=3 by the source, k=4 by both, k=5 deleted by the source,
// k=6 deleted by the target, k=7 added by the source, k=8 by the target.
func TestMergeOracle(t *testing.T) {
	g := &rowGen{rng: rand.New(rand.NewSource(1))}
	type rowSet map[int64]orpheusdb.Row
	base := rowSet{}
	for k := int64(1); k <= 6; k++ {
		base[k] = g.withKey(k)
	}
	clone := func(m rowSet) rowSet {
		out := rowSet{}
		for k, r := range m {
			out[k] = r
		}
		return out
	}
	rows := func(m rowSet) []orpheusdb.Row {
		var out []orpheusdb.Row
		for _, r := range m {
			out = append(out, r)
		}
		return out
	}
	ours, theirs := clone(base), clone(base)
	ours[2] = g.withKey(2)
	theirs[3] = g.withKey(3)
	ours[4], theirs[4] = g.withKey(4), g.withKey(4)
	delete(theirs, 5)
	delete(ours, 6)
	theirs[7] = g.withKey(7)
	ours[8] = g.withKey(8)
	got := map[int64]uint64{}
	for _, r := range mergeOracle(rows(base), rows(ours), rows(theirs)) {
		got[r[0].I] = hashRow(r)
	}
	want := map[int64]uint64{1: hashRow(base[1]), 2: hashRow(ours[2]), 3: hashRow(theirs[3]), 4: hashRow(theirs[4]), 7: hashRow(theirs[7]), 8: hashRow(ours[8])}
	if len(got) != len(want) {
		t.Fatalf("merged keys %v, want %v", got, want)
	}
	for k, h := range want {
		if got[k] != h {
			t.Errorf("key %d: wrong side won", k)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
		if w.Why != specs[i].why {
			t.Errorf("%s: BENCHMARK.json and the program give different reasons", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, lm)
		}
	}
	if len(bf.EndToEnd) != 12 {
		t.Errorf("%d end-to-end metrics, want 12", len(bf.EndToEnd))
	}
	for _, e := range bf.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

// The scaled smoke: every workload, both runs, every metric BENCHMARK.json
// names, no failed op, and the layer counters that tell the workloads apart.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkJSON(t)
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{sp: sp, seed: 1, scale: 0.02, seconds: 1.5, clients: 2, setups: 1, work: t.TempDir(), out: t.TempDir()}
			timed, err := runTimed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.work = t.TempDir()
			traced, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{timed, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("traced=%v: attempted %d, failed %d: %v", r.Traced, r.Attempted, r.Failed, r.Failures)
				}
			}
			for _, e := range bf.EndToEnd {
				m, ok := timed.Metrics[e.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 || m.Unit != e.Unit {
					t.Errorf("end-to-end metric %s: %+v (present %v)", e.Name, m, ok)
				}
			}
			if len(timed.Metrics) != len(bf.EndToEnd) {
				t.Errorf("timed run printed %d metrics, BENCHMARK.json names %d", len(timed.Metrics), len(bf.EndToEnd))
			}
			for _, e := range bf.PerLayer {
				m, ok := traced.Metrics[e.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != e.Unit {
					t.Errorf("per-layer metric %s: %+v (present %v)", e.Name, m, ok)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+sp.name+".jsonl")); err != nil {
				t.Error(err)
			}
			layer := func(name string) float64 { return traced.Metrics[name].Value }
			switch sp.name {
			case "checkout_mem":
				if layer("engine.page_faults_per_cold_checkout") != 0 {
					t.Error("page faults on the memory backend")
				}
			case "checkout_disk":
				if layer("engine.page_faults_per_cold_checkout") <= 0 {
					t.Error("no page fault on a cold checkout of the disk backend")
				}
			case "commit_wal":
				if layer("wal.append_us") <= layer("wal.append_nosync_us") || layer("wal.bytes_per_commit") <= 0 {
					t.Error("the log costs nothing on the workload made to stress it")
				}
			case "mixed":
				if layer("cache.invalidations") <= 0 {
					t.Error("commits invalidated nothing")
				}
			}
			if sp.name == "checkout_mem" || sp.name == "checkout_disk" {
				if layer("wal.bytes_per_commit") != 0 || layer("wal.append_us") != 0 {
					t.Error("log traffic on a workload without a log")
				}
			}
		})
	}
}
