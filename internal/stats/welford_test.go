package stats

import (
	"math"
	"testing"
)

// twoPass is the batch reference: the arithmetic mean and the sample (n-1)
// standard deviation computed from the resident slice in two passes.
func twoPass(xs []float64) (mean, stddev float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	s := 0.0
	for _, x := range xs {
		s += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(s / float64(len(xs)-1))
}

// TestWelfordMatchesBatchExactly checks exact equivalence on datasets whose
// running updates stay in exactly-representable binary arithmetic, so the
// streaming and the batch paths must agree bit-for-bit.
func TestWelfordMatchesBatchExactly(t *testing.T) {
	cases := [][]float64{
		{1},
		{1, 2},
		{1, 2, 3},
		{2, 4, 6, 8},
		{-4, 0, 4},
		{0.5, 1.5, 2.5, 3.5},
	}
	for _, xs := range cases {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, stddev := twoPass(xs)
		if dm := math.Abs(w.Mean() - mean); dm > 0 {
			t.Errorf("%v: streaming mean %v != batch %v", xs, w.Mean(), mean)
		}
		if ds := math.Abs(w.StdDev() - stddev); ds > 0 {
			t.Errorf("%v: streaming stddev %v != batch %v", xs, w.StdDev(), stddev)
		}
	}
}

// TestWelfordMatchesBatchOnRandomData allows only float rounding noise
// between the one-pass and the two-pass formulations on arbitrary data.
func TestWelfordMatchesBatchOnRandomData(t *testing.T) {
	rng := NewRNG(99)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.Float64()*2000 - 1000
		w.Add(xs[i])
	}
	const tol = 1e-9
	mean, stddev := twoPass(xs)
	if d := math.Abs(w.Mean() - mean); d > tol*math.Abs(mean)+tol {
		t.Errorf("mean drifted by %g", d)
	}
	if d := math.Abs(w.StdDev() - stddev); d > tol*stddev+tol {
		t.Errorf("stddev drifted by %g", d)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Errorf("zero-value accumulator: %+v", w)
	}
	w.Add(7)
	if w.Mean() != 7 || w.Variance() != 0 {
		t.Errorf("single observation: mean %v, variance %v", w.Mean(), w.Variance())
	}
	// A constant stream has exactly zero variance (d == 0 every update).
	for i := 0; i < 100; i++ {
		w.Add(7)
	}
	if w.Variance() != 0 {
		t.Errorf("constant stream variance %v", w.Variance())
	}
}

func TestQuantileSortsUnsortedInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got, want := Quantile(xs, 0.5), 5.0; got != want {
		t.Errorf("median of unsorted input = %v, want %v", got, want)
	}
	// The documented fallback sorts a private copy: the caller's slice must
	// be left untouched.
	if xs[0] != 9 || xs[4] != 7 {
		t.Errorf("input mutated: %v", xs)
	}
	sorted := []float64{1, 3, 5, 7, 9}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Errorf("median of sorted input = %v", got)
	}
}

func TestQuantileTinySlices(t *testing.T) {
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("1-element quantile = %v", got)
	}
	if got := Quantile([]float64{10, 20}, 0); got != 10 {
		t.Errorf("2-element q=0 quantile = %v", got)
	}
	if got := Quantile([]float64{10, 20}, 1); got != 20 {
		t.Errorf("2-element q=1 quantile = %v", got)
	}
	if got := Quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("2-element median = %v (want linear interpolation)", got)
	}
	if got := Quantile([]float64{20, 10}, 0.5); got != 15 {
		t.Errorf("2-element reversed median = %v", got)
	}
}
