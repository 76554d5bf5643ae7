package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Nil receivers must be no-ops.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Quantile(0.5) != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of dup_total did not panic")
		}
	}()
	r.Gauge("dup_total", "second")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "spaces are not allowed")
}

func TestHistogramBucketsSumCount(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Fatalf("sum = %g, want 560.5", h.Sum())
	}
	cum, total := h.snapshot()
	want := []int64{1, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative bucket %d = %d, want %d", i, cum[i], w)
		}
	}
	if total != 5 {
		t.Fatalf("snapshot total = %d, want 5", total)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	// 90 fast ops at ~10µs, 10 slow ops at ~50ms: p50 must sit in the fast
	// band and p99 in the slow band.
	for i := 0; i < 90; i++ {
		h.ObserveDuration(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(50 * time.Millisecond)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99) // seconds
	if p50 > 1e-3 {
		t.Fatalf("p50 = %gs, want in the microsecond band", p50)
	}
	if p99 < 10e-3 {
		t.Fatalf("p99 = %gs, want in the slow band", p99)
	}
	if p50 >= p99 {
		t.Fatalf("p50 %gs >= p99 %gs", p50, p99)
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

// TestHistogramQuantileOverflow pins the +Inf-bucket behavior: a quantile
// landing past the last bound reports the largest overflowing observation,
// not the last finite bound — so p99 of an outlier-heavy series is no longer
// understated — while quantiles inside the bounds stay interpolated.
func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1000)
	if q := h.Quantile(0.5); q != 1000 {
		t.Fatalf("overflow quantile = %g, want the observed max 1000", q)
	}
	h.Observe(2500)
	if q := h.Quantile(0.99); q != 2500 {
		t.Fatalf("overflow quantile = %g, want the new max 2500", q)
	}

	// Outlier-heavy series: 90 fast observations, 10 far past the last bound.
	// p99 sits in the +Inf bucket and must surface the outlier magnitude.
	h2 := NewHistogram([]float64{0.5, 1})
	for i := 0; i < 90; i++ {
		h2.Observe(0.2)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(60)
	}
	if q := h2.Quantile(0.99); q != 60 {
		t.Fatalf("p99 = %g, want 60 (outliers hidden by the last bound)", q)
	}
	if q := h2.Quantile(0.5); q > 0.5 {
		t.Fatalf("p50 = %g, want interpolated within the first bucket", q)
	}

	// A max below the last bound keeps the old clamp: the rank says "past the
	// buckets" only because of where observations fell, and the last bound
	// remains the tightest truthful answer.
	h3 := NewHistogram([]float64{1, 2})
	h3.Observe(1.5)
	if q := h3.Quantile(1); q != 2 {
		t.Fatalf("in-bounds q = %g, want bucket bound 2", q)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "status")
	v.With("/a", "200").Add(3)
	v.With("/a", "200").Inc()
	v.With("/a", "500").Inc()
	if got := v.With("/a", "200").Value(); got != 4 {
		t.Fatalf("child counter = %d, want 4", got)
	}
	hv := r.HistogramVec("lat_seconds", "latency", LatencyBuckets, "route")
	hv.With("/a").ObserveDuration(time.Millisecond)
	if hv.With("/a").Count() != 1 {
		t.Fatal("histogram child lost an observation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("orpheus_ops_total", "total ops")
	c.Add(2)
	r.GaugeFunc("orpheus_live", "live value", func() float64 { return 1.5 })
	v := r.CounterVec("orpheus_req_total", "requests", "route")
	v.With(`/a"b\c`).Inc()
	h := r.Histogram("orpheus_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP orpheus_ops_total total ops\n",
		"# TYPE orpheus_ops_total counter\n",
		"orpheus_ops_total 2\n",
		"# TYPE orpheus_live gauge\n",
		"orpheus_live 1.5\n",
		`orpheus_req_total{route="/a\"b\\c"} 1` + "\n",
		"# TYPE orpheus_lat_seconds histogram\n",
		`orpheus_lat_seconds_bucket{le="0.1"} 1` + "\n",
		`orpheus_lat_seconds_bucket{le="1"} 1` + "\n",
		`orpheus_lat_seconds_bucket{le="+Inf"} 2` + "\n",
		"orpheus_lat_seconds_sum 5.05\n",
		"orpheus_lat_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "concurrent", LatencyBuckets)
	c := r.Counter("conc_total", "concurrent")
	v := r.CounterVec("conc_vec_total", "concurrent vec", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.ObserveDuration(time.Microsecond)
				c.Inc()
				v.With("x").Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 || v.With("x").Value() != 8000 {
		t.Fatalf("lost updates: hist=%d counter=%d vec=%d", h.Count(), c.Value(), v.With("x").Value())
	}
}

// TestOverflowHistogramExpositionParses guards the exposition side of the
// overflow fix: a histogram whose observations land past the last bound must
// still write well-formed text — a +Inf bucket equal to _count, cumulative
// bucket lines, and finite sample values.
func TestOverflowHistogramExpositionParses(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("over_seconds", "overflow-heavy latencies", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(900)
	h.Observe(4000)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var infBucket, count float64
	var bucketVals []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("non-finite or unparsable value in %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(fields[0], `over_seconds_bucket{le="+Inf"}`):
			infBucket = v
		case fields[0] == "over_seconds_count":
			count = v
		}
		if strings.HasPrefix(fields[0], "over_seconds_bucket") {
			bucketVals = append(bucketVals, v)
		}
	}
	if count != 3 || infBucket != 3 {
		t.Fatalf("count=%g +Inf bucket=%g, want both 3", count, infBucket)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", bucketVals)
		}
	}
	if q := h.Quantile(0.99); q != 4000 {
		t.Fatalf("p99 = %g, want the overflow max 4000", q)
	}
}
