// Package stats provides the small statistical toolbox the test-generation
// flow depends on: a deterministic pseudo-random source, Gaussian sampling,
// streaming and order statistics (Welford, Quantile), and the ν ("nu")
// margin calculation from Section 4.1 of the paper.
//
// Everything here is hand-rolled on purpose: the reproduction is stdlib-only
// and must be bit-for-bit deterministic across runs, so we fix the RNG
// algorithm (SplitMix64) instead of relying on math/rand internals that may
// change between Go releases.
package stats

import (
	"math"
	"sort"
)

// RNG is a deterministic 64-bit pseudo-random number generator based on
// SplitMix64. It is tiny, fast, passes BigCrush, and — unlike math/rand —
// its output sequence is fixed by this package forever, which keeps every
// experiment in the repository reproducible bit-for-bit.
type RNG struct {
	state uint64
	// cached second Box-Muller variate
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//lint:ignore no-panic mirrors math/rand.Intn's documented contract for a non-positive bound
		panic("stats: Intn argument must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar variant of the Box-Muller transform (no trigonometry in
// the hot path). Variates are produced in pairs; the second is cached. It
// is the one-element case of FillNorm.
func (r *RNG) NormFloat64() float64 {
	var z [1]float64
	r.FillNorm(z[:], 1)
	return z[0]
}

// FillNorm fills dst with scale × standard normal variates: dst[i] is, bit
// for bit, scale * r.NormFloat64() of the i-th call of that per-variate
// loop, and r is left exactly as that loop leaves it (the cached second
// variate of a pair included). It runs the polar method inline, with no
// method call and no cache check per variate, on a local copy of the
// generator state.
func (r *RNG) FillNorm(dst []float64, scale float64) {
	i := 0
	if r.hasGauss && len(dst) > 0 {
		r.hasGauss = false
		dst[0] = scale * r.gauss
		i = 1
	}
	g := RNG{state: r.state}
	for i < len(dst) {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		//lint:ignore float-eq Marsaglia polar rejection needs the exact zero bit pattern; margin would import-cycle through snn
		if s >= 1 || s == 0 {
			continue
		}
		mag := math.Sqrt(-2 * math.Log(s) / s)
		dst[i] = scale * (u * mag)
		if i+1 == len(dst) {
			r.gauss = v * mag
			r.hasGauss = true
			break
		}
		dst[i+1] = scale * (v * mag)
		i += 2
	}
	r.state = g.state
}

// Nu computes ν from Eq. 4 of the paper: the maximum number of simultaneously
// stimulated neurons in a layer such that the accumulated weight error keeps
// every neuron's output unchanged with confidence determined by c.
//
//	c·sqrt(ν)·σ < ωmax/2   ⇒   ν < (ωmax / (2·c·σ))²
//
// Nu returns the largest integer strictly satisfying the inequality. For
// σ == 0 (no variation) it returns MaxNu, a sentinel meaning "unbounded".
func Nu(omegaMax, sigma, c float64) int {
	if sigma <= 0 || c <= 0 {
		return MaxNu
	}
	bound := omegaMax / (2 * c * sigma)
	v := bound * bound
	n := int(math.Ceil(v)) - 1 // largest integer strictly below v
	if n < 0 {
		n = 0
	}
	if n > MaxNu {
		return MaxNu
	}
	return n
}

// MaxNu is the sentinel returned by Nu when variation is zero: effectively
// "no limit on simultaneously stimulated neurons".
const MaxNu = int(1) << 40

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation. xs should be sorted ascending; unsorted input is detected
// and sorted into a private copy first (the documented fallback), so the
// result is always the quantile of the multiset and xs is never modified.
// Callers that pre-sort keep the O(n) fast path.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		xs = sorted
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return xs[n-1]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// MergeSorted merges two ascending-sorted sample sets into one ascending
// slice in O(len(a)+len(b)). Shard-local latency samples arrive pre-sorted
// (each worker sorts once); merging with MergeSorted instead of
// re-concatenating and re-sorting keeps Quantile on its documented O(n)
// sorted fast path for the cluster-wide distribution. Inputs are never
// modified; the result is freshly allocated unless one input is empty, in
// which case the other is returned as-is.
func MergeSorted(a, b []float64) []float64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
