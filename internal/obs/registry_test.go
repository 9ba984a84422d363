package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registration did not return the same counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("nil instruments must read as zero")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2.5, 5})
	// A value exactly on a boundary lands in that boundary's bucket
	// (Prometheus le is inclusive).
	h.Observe(1)    // → le="1"
	h.Observe(2.5)  // → le="2.5"
	h.Observe(2.6)  // → le="5"
	h.Observe(5)    // → le="5"
	h.Observe(5.01) // → +Inf only
	var b strings.Builder
	h.writeText(&b, "h", "")
	got := b.String()
	want := `h_bucket{le="1"} 1
h_bucket{le="2.5"} 2
h_bucket{le="5"} 4
h_bucket{le="+Inf"} 5
h_sum 16.11
h_count 5
`
	if got != want {
		t.Errorf("histogram render:\n%s\nwant:\n%s", got, want)
	}
	if h.Count() != 5 || h.Sum() != 16.11 {
		t.Errorf("count/sum = %d/%g", h.Count(), h.Sum())
	}
}

func TestEmptyHistogramRendering(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	var b strings.Builder
	h.writeText(&b, "empty", "")
	want := `empty_bucket{le="1"} 0
empty_bucket{le="2"} 0
empty_bucket{le="+Inf"} 0
empty_sum 0
empty_count 0
`
	if got := b.String(); got != want {
		t.Errorf("empty histogram render:\n%s\nwant:\n%s", got, want)
	}
	if h.Mean() != 0 {
		t.Errorf("empty mean = %g, want 0", h.Mean())
	}
}

func TestHistogramBucketsSortedAndDeduped(t *testing.T) {
	h := newHistogram([]float64{5, 1, 2.5, 1, 5})
	want := []float64{1, 2.5, 5}
	if len(h.bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	for i, b := range want {
		if h.bounds[i] < b || b < h.bounds[i] {
			t.Fatalf("bounds = %v, want %v", h.bounds, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != float64(workers*per) {
		t.Errorf("sum = %g, want %d", h.Sum(), workers*per)
	}
}

// goldenRegistry builds the same logical registry with the instruments
// registered in the given order — exposition must not depend on it.
func goldenRegistry(reverse bool) *Registry {
	r := NewRegistry()
	wire := []func(){
		func() { r.Counter("aaa_total", "first counter").Add(7) },
		func() {
			r.Counter("jobs_total", "jobs by state", L("state", "done")).Add(3)
			r.Counter("jobs_total", "jobs by state", L("state", "failed")).Add(1)
		},
		func() { r.Gauge("depth", "queue depth").Set(4) },
		func() {
			h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
			h.Observe(0.05)
			h.Observe(0.1)
			h.Observe(3)
		},
		func() { r.GaugeFunc("fn_gauge", "scrape-time value", func() float64 { return 9 }) },
	}
	if reverse {
		for i := len(wire) - 1; i >= 0; i-- {
			wire[i]()
		}
	} else {
		for _, f := range wire {
			f()
		}
	}
	return r
}

// TestPrometheusExpositionGolden locks the text format byte-for-byte:
// families sorted by name, series by label signature, HELP/TYPE once per
// family, histograms cumulative with an inclusive +Inf bucket.
func TestPrometheusExpositionGolden(t *testing.T) {
	want := `# HELP aaa_total first counter
# TYPE aaa_total counter
aaa_total 7
# HELP depth queue depth
# TYPE depth gauge
depth 4
# HELP fn_gauge scrape-time value
# TYPE fn_gauge gauge
fn_gauge 9
# HELP jobs_total jobs by state
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 3.15
lat_seconds_count 3
`
	for _, reverse := range []bool{false, true} {
		r := goldenRegistry(reverse)
		var first, second strings.Builder
		if err := WriteText(&first, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&second, r); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Errorf("reverse=%v: two renders differ", reverse)
		}
		if first.String() != want {
			t.Errorf("reverse=%v: exposition:\n%s\nwant:\n%s", reverse, first.String(), want)
		}
	}
}

func TestWriteTextMergesRegistries(t *testing.T) {
	a := NewRegistry()
	a.Counter("zzz_total", "from a").Add(1)
	b := NewRegistry()
	b.Counter("aaa_total", "from b").Add(2)
	var out strings.Builder
	if err := WriteText(&out, a, b); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	ia, iz := strings.Index(s, "aaa_total 2"), strings.Index(s, "zzz_total 1")
	if ia < 0 || iz < 0 || ia > iz {
		t.Errorf("merged exposition wrong or unsorted:\n%s", s)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escaping", L("path", "a\"b\\c\nd")).Add(1)
	var out strings.Builder
	if err := WriteText(&out, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("escaped label render:\n%s", out.String())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering one name under two types must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "as counter")
	r.Gauge("x", "as gauge")
}

func TestRuntimeGaugesRender(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	RegisterRuntimeGauges(r) // idempotent
	var out strings.Builder
	if err := WriteText(&out, r); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("runtime exposition missing %s:\n%s", name, out.String())
		}
	}
}
