package stats

import "math"

// Welford is an O(1)-memory running estimator of mean and sample variance
// (Welford's online algorithm). The in-field online monitor folds one
// spike-count observation at a time into one Welford per monitored channel,
// so golden statistics are captured in a single streaming pass with no
// retained sample buffer — the point of the algorithm over a two-pass
// mean and deviation, which needs the whole slice resident.
//
// The zero value is an empty accumulator, ready to use. Add is a pure
// function of the accumulator state and its argument, so equal observation
// sequences produce bit-identical estimates on every run.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running arithmetic mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running sample variance (n-1 denominator), or 0 for
// fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation (n-1 denominator),
// or 0 for fewer than two observations.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
