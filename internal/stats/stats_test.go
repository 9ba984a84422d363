package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(2)
	seen := make(map[int]int)
	for i := 0; i < 6000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(6) value %d drawn %d/6000 times", v, c)
		}
	}
	assertPanics(t, "Intn(0)", func() { r.Intn(0) })
}

func TestPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

// TestMeanStdDev pins Welford's summary conventions: mean 0 before any
// observation, a sample (n-1) standard deviation that is 0 for a single
// observation.
func TestMeanStdDev(t *testing.T) {
	welford := func(xs ...float64) *Welford {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return &w
	}
	if welford().Mean() != 0 {
		t.Errorf("empty mean != 0")
	}
	if got := welford(1, 2, 3).Mean(); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if welford(5).StdDev() != 0 {
		t.Errorf("StdDev single != 0")
	}
	if got := welford(2, 4, 4, 4, 5, 5, 7, 9).StdDev(); math.Abs(got-2.138) > 0.01 {
		t.Errorf("StdDev = %g", got)
	}
}

func TestNu(t *testing.T) {
	// Eq. 4: ν < (ωmax/(2cσ))². ωmax=10, c=3, σ=0.05 → bound = 1111.1 → 1111.
	if got := Nu(10, 0.05, 3); got != 1111 {
		t.Errorf("Nu = %d, want 1111", got)
	}
	// σ=0 → unbounded sentinel.
	if got := Nu(10, 0, 3); got != MaxNu {
		t.Errorf("Nu(σ=0) = %d, want MaxNu", got)
	}
	// Huge σ → 0 (no safe stimulation count).
	if got := Nu(10, 100, 3); got != 0 {
		t.Errorf("Nu(huge σ) = %d, want 0", got)
	}
	// Exact boundary: bound² integer → strict inequality excludes it.
	// ωmax=12, c=3, σ=1 → (12/6)² = 4 → ν = 3.
	if got := Nu(12, 1, 3); got != 3 {
		t.Errorf("Nu strictness: %d, want 3", got)
	}
}

func TestNuMonotoneQuick(t *testing.T) {
	// Property: ν is non-increasing in σ and non-decreasing in ωmax.
	f := func(s1, s2 uint8) bool {
		sig1 := 0.01 + float64(s1%100)/100
		sig2 := sig1 + 0.01 + float64(s2%100)/100
		return Nu(10, sig1, 3) >= Nu(10, sig2, 3) &&
			Nu(20, sig1, 3) >= Nu(10, sig1, 3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Errorf("empty quantile != 0")
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestMergeSorted(t *testing.T) {
	a := []float64{1, 3, 3, 7}
	b := []float64{2, 3, 8}
	got := MergeSorted(a, b)
	want := []float64{1, 2, 3, 3, 3, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("merged %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %g, want %g (full: %v)", i, got[i], want[i], got)
		}
	}
	if a[0] != 1 || b[0] != 2 {
		t.Errorf("inputs modified: a=%v b=%v", a, b)
	}
	if out := MergeSorted(nil, b); len(out) != len(b) {
		t.Errorf("empty-left merge = %v", out)
	}
	if out := MergeSorted(a, nil); len(out) != len(a) {
		t.Errorf("empty-right merge = %v", out)
	}
	if out := MergeSorted(nil, nil); len(out) != 0 {
		t.Errorf("empty merge = %v", out)
	}
}

func TestMergeSortedStaysSorted(t *testing.T) {
	// Property: for sorted inputs the merge is sorted (so Quantile keeps
	// its O(n) fast path) and Quantile over the merge equals Quantile over
	// the re-sorted concatenation bit-identically.
	rng := NewRNG(5)
	check := func(na, nb int) {
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		sortFloats(a)
		sortFloats(b)
		merged := MergeSorted(a, b)
		concat := append(append([]float64{}, a...), b...)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if Quantile(merged, q) != Quantile(concat, q) {
				t.Fatalf("Quantile(%g) differs: merged %g vs concat %g",
					q, Quantile(merged, q), Quantile(concat, q))
			}
		}
		for i := 1; i < len(merged); i++ {
			if merged[i-1] > merged[i] {
				t.Fatalf("merge not sorted at %d: %v", i, merged)
			}
		}
	}
	for _, sizes := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {17, 4}, {100, 63}} {
		check(sizes[0], sizes[1])
	}
}

func sortFloats(xs []float64) {
	sort.Float64s(xs)
}
