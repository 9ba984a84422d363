// Package stats provides the small statistical toolbox the test-generation
// flow depends on: a deterministic pseudo-random source, Gaussian sampling
// (a 256-layer ziggurat), streaming and order statistics (Welford,
// Quantile), and the ν ("nu") margin calculation from Section 4.1 of the
// paper.
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
// experiment in the repository reproducible bit-for-bit. Its whole state is
// one word: normal variates are drawn one Uint64 at a time (see FillNorm),
// so nothing is cached between draws.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// splitmixGamma is SplitMix64's state increment.
const splitmixGamma = 0x9E3779B97F4A7C15

// splitmix is SplitMix64's output function of a state.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	return splitmix(r.state)
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

// Choose returns the first k entries of a uniformly random permutation of
// [0, n), in the order drawn: k distinct indices, each prefix of which is
// a uniform ordered sample. It is a partial Fisher–Yates shuffle: step i
// swaps position i with a uniform position j in [i, n), one Intn(n−i)
// call, and keeps what lands at i. A small sample stores only the
// displaced positions, in a map. From k > n/32 on, where a map entry
// costs more than a slot of [0, n), it shuffles a materialised [0, n)
// instead, with the same draws; as n < 32k there, a draw costs O(k) time
// and memory either way, whatever n is. It panics unless 0 ≤ k ≤ n.
func (r *RNG) Choose(n, k int) []int {
	if k < 0 || k > n {
		//lint:ignore no-panic mirrors Intn's contract: a sample larger than its population is a caller bug
		panic("stats: Choose needs 0 <= k <= n")
	}
	if k > n/32 {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:k:k]
	}
	return r.chooseSparse(n, k)
}

// chooseSparse is Choose over a map of displaced positions.
func (r *RNG) chooseSparse(n, k int) []int {
	out := make([]int, k)
	moved := make(map[int]int, k) // position → the index now there, where it is not the position itself
	at := func(p int) int {
		if v, ok := moved[p]; ok {
			return v
		}
		return p
	}
	for i := range out {
		j := i + r.Intn(n-i)
		out[i], moved[j] = at(j), at(i)
		// Later steps draw from [i+1, n), so position i is never read again.
		delete(moved, i)
	}
	return out
}

// The normal sampler is the 256-layer ziggurat of Marsaglia & Tsang ("The
// Ziggurat Method for Generating Random Variables", J. Stat. Softw. 5(8),
// 2000), with the layer index taken from bits the uniform does not use, as
// in Doornik ("An Improved Ziggurat Method to Generate Normal Random
// Samples", 2005). The density f(x) = exp(−x²/2) is covered by 256 layers
// of equal area zigV: layer j ≥ 1 is the rectangle [0, zigX[j]) × [f(zigX[j]),
// f(zigX[j+1])], and the base layer 0 is the rectangle under f(zigR), widened
// to zigX[0] = zigV/f(zigR) so that its excess over zigR carries the tail's
// area.
const (
	zigR = 3.6541528853610088 // right edge of the base rectangle; the tail starts here
	zigV = 4.92867323399e-3   // area of every layer
)

// zigX holds the layer edges (zigX[1] = zigR, decreasing to zigX[256] = 0)
// and zigK[j] = zigX[j+1]/zigX[j], the share of layer j that lies wholly
// under the density. Both are computed once, from the closed form.
var zigX, zigK = zigTables()

// zigTables computes the ziggurat's layer edges from zigR and zigV: each
// next edge is where f reaches the top of a layer of area zigV,
// x[i+1] = √(−2 ln(zigV/x[i] + f(x[i]))). The top layer's edge is the mode,
// 0, which the recursion reaches only up to rounding, so it is set.
func zigTables() (x [257]float64, k [256]float64) {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	x[0] = zigV / f(zigR)
	x[1] = zigR
	for i := 1; i < 255; i++ {
		x[i+1] = math.Sqrt(-2 * math.Log(zigV/x[i]+f(x[i])))
	}
	x[256] = 0
	for j := range k {
		k[j] = x[j+1] / x[j]
	}
	return x, k
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) drawn
// by the ziggurat method (see FillNorm). It is the one-element case of
// FillNorm.
func (r *RNG) NormFloat64() float64 {
	var z [1]float64
	r.FillNorm(z[:], 1)
	return z[0]
}

// FillNorm fills dst with scale × standard normal variates: dst[i] is, bit
// for bit, scale * r.NormFloat64() of the i-th call of that per-variate
// loop, and r is left exactly as that loop leaves it.
//
// Each variate is a ziggurat draw from one Uint64 b: its low 8 bits pick
// the layer j and its top 53 bits, read as a signed integer, give a uniform
// u ∈ [−1, 1), so the two share no bit. When |u| < zigK[j] the point
// u·zigX[j] lies wholly under the density and is the variate; this fast
// path takes 98.5 % of draws and runs inline, on a local copy of the
// generator state. The rest go to normSlow, out of line.
func (r *RNG) FillNorm(dst []float64, scale float64) {
	s := r.state
	for i := range dst {
		for {
			s += splitmixGamma
			b := splitmix(s)
			j := uint8(b)
			u := float64(int64(b)>>11) * 0x1p-52
			if math.Abs(u) < zigK[j] {
				dst[i] = scale * (u * zigX[j])
				break
			}
			r.state = s
			z, ok := r.normSlow(int(j), u) // an int: j+1 must not wrap at 255
			s = r.state
			if ok {
				dst[i] = scale * z
				break
			}
		}
	}
	r.state = s
}

// normSlow finishes a ziggurat draw (layer j, uniform u) that missed the
// fast path, drawing any further uniforms from r. In the base layer the
// point lies beyond zigR, and the variate is a draw from the tail with u's
// sign. In any other layer the point z = u·zigX[j] lies in the layer's
// wedge, and it is kept when a uniform height between f(zigX[j]) and
// f(zigX[j+1]) falls under f(z); the test runs divided through by f(z), as
// in Doornik's formulation. ok is false when the point is rejected: the
// caller then draws afresh.
func (r *RNG) normSlow(j int, u float64) (z float64, ok bool) {
	if j == 0 {
		// Marsaglia's exponential method: x and y are exponential variates
		// of rate zigR and 1, and zigR + x is accepted when 2y > x². The
		// uniforms enter as 1 − Float64() ∈ (0, 1], so the log never sees 0.
		for {
			x := -math.Log(1-r.Float64()) / zigR
			y := -math.Log(1 - r.Float64())
			if 2*y > x*x {
				return math.Copysign(zigR+x, u), true
			}
		}
	}
	// The float64 conversions round each product before it is added, so no
	// target fuses them into an FMA and the stream is the same everywhere.
	z = u * zigX[j]
	f0 := math.Exp(-0.5 * (float64(zigX[j]*zigX[j]) - float64(z*z)))     // f(zigX[j]) / f(z) ≤ 1
	f1 := math.Exp(-0.5 * (float64(zigX[j+1]*zigX[j+1]) - float64(z*z))) // f(zigX[j+1]) / f(z) ≥ 1
	return z, f1+float64(r.Float64()*(f0-f1)) < 1
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
