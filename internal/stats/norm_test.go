package stats

import (
	"math"
	"sync"
	"testing"
)

// zigCounts tallies the slow-path draws of refNorm.
type zigCounts struct {
	wedgeRejects int // wedge points rejected, each followed by a fresh draw
	tails        int // draws that went to the tail beyond zigR
}

// refNorm is the ziggurat written out one variate per call, through the
// RNG's own Uint64 and Float64: the plain loop FillNorm must reproduce. It
// shares nothing with the sampler but the package tables, and tallies its
// slow-path draws into c.
func refNorm(r *RNG, c *zigCounts) float64 {
	for {
		b := r.Uint64()
		layer := int(b % 256)
		u := float64(int64(b)>>11) / (1 << 52)
		x := u * zigX[layer]
		if math.Abs(u) < zigX[layer+1]/zigX[layer] {
			return x
		}
		if layer == 0 {
			c.tails++
			for {
				e := -math.Log(1-r.Float64()) / zigR
				if 2*-math.Log(1-r.Float64()) > e*e {
					if u < 0 {
						return -(zigR + e)
					}
					return zigR + e
				}
			}
		}
		top := math.Exp(-0.5 * (float64(zigX[layer]*zigX[layer]) - float64(x*x)))
		bottom := math.Exp(-0.5 * (float64(zigX[layer+1]*zigX[layer+1]) - float64(x*x)))
		if bottom+float64(r.Float64()*(top-bottom)) < 1 {
			return x
		}
		c.wedgeRejects++
	}
}

// TestNormFloat64Pinned pins the literal bits of the first draws of one
// seed and the generator state they leave, so a change to the ziggurat
// itself — not only to how FillNorm loops over it — fails.
func TestNormFloat64Pinned(t *testing.T) {
	want := []uint64{
		0x3fd478f9baf45e26,
		0xbfe50788f4467bc1,
		0x3fd677ad31bed493,
		0x3fddec413ee26a63,
		0xc000bd95b459f0f4,
		0xbff388ba297c1f84,
	}
	r := NewRNG(271828)
	for i, w := range want {
		if got := math.Float64bits(r.NormFloat64()); got != w {
			t.Fatalf("draw %d = %#016x, want %#016x", i, got, w)
		}
	}
	if got := r.Uint64(); got != 0x89ce26600fcb6007 {
		t.Fatalf("Uint64 after the draws = %#016x, want 0x89ce26600fcb6007", got)
	}
}

// TestFillNormMatchesPerVariate compares FillNorm with the per-variate
// reference loop scale * refNorm bit for bit, over short and long lengths
// and several scales, and checks that both leave the generator in the same
// state: the next NormFloat64 and the next Uint64 agree. On every seed the
// longest fill takes both rare paths at least once, a rejected wedge point
// and a tail draw.
func TestFillNormMatchesPerVariate(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 17, 64, 255, 1000, 100_001}
	for _, seed := range []uint64{1, 7, 271828} {
		for _, n := range lengths {
			for _, scale := range []float64{1, 0.05, -3} {
				got, want := NewRNG(seed), NewRNG(seed)
				var c zigCounts
				dst := make([]float64, n)
				got.FillNorm(dst, scale)
				for i, x := range dst {
					if w := scale * refNorm(want, &c); math.Float64bits(x) != math.Float64bits(w) {
						t.Fatalf("seed %d n=%d scale=%g: dst[%d] = %v, per-variate %v", seed, n, scale, i, x, w)
					}
				}
				if n == lengths[len(lengths)-1] && (c.wedgeRejects == 0 || c.tails == 0) {
					t.Fatalf("seed %d n=%d: %d wedge rejections, %d tail draws; the fill must take both paths", seed, n, c.wedgeRejects, c.tails)
				}
				if g, w := got.NormFloat64(), refNorm(want, &c); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d n=%d: next NormFloat64 %v, per-variate %v", seed, n, g, w)
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d n=%d: next Uint64 %#x, per-variate %#x", seed, n, g, w)
				}
			}
		}
	}
}

// TestZigguratTables checks the layer edges against their definition:
// every layer has area zigV, the edges strictly decrease from the base
// layer's width through zigR to the mode, 0.
func TestZigguratTables(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	if zigX[1] != zigR || zigX[256] != 0 {
		t.Fatalf("x[1] = %v, x[256] = %v; want %v and 0", zigX[1], zigX[256], zigR)
	}
	for j := 0; j < 256; j++ {
		if zigX[j+1] >= zigX[j] {
			t.Fatalf("x[%d] = %v does not fall below x[%d] = %v", j+1, zigX[j+1], j, zigX[j])
		}
		area := zigX[j] * (f(zigX[j+1]) - f(zigX[j]))
		if j == 0 {
			area = zigX[0] * f(zigR) // the base rectangle; its excess over zigR is the tail's area
		}
		if rel := math.Abs(area-zigV) / zigV; rel > 1e-8 {
			t.Errorf("layer %d has area %.15g, want %.15g (relative error %.2g)", j, area, zigV, rel)
		}
		if k := zigX[j+1] / zigX[j]; zigK[j] != k {
			t.Errorf("k[%d] = %v, want x[%d]/x[%d] = %v", j, zigK[j], j+1, j, k)
		}
	}
}

// The distribution tests compare FillNorm's output, which is NormFloat64's
// (TestFillNormMatchesPerVariate), with N(0, 1) itself. Each fixed seed —
// chosen before the sampler's output was seen — draws normDraws variates
// once, summarised for every test, and each statistic must lie within
// normTolSE standard errors of its expected value.
const (
	normDraws = 10_000_000
	normTolSE = 5
	chiBins   = 200
	// chiCrit is χ²(199)'s 99.9 % point.
	chiCrit = 266.39
)

var normSeeds = []uint64{101, 202}

// normTails are the thresholds k of the one-sided tail rates P(Z > k) and
// P(Z < −k): two, three and four standard deviations and the tail's
// start, zigR.
var normTails = [...]float64{2, 3, zigR, 4}

// normSummary accumulates one seed's draws.
type normSummary struct {
	pow          [5]float64 // pow[p] = Σ z^p for p = 1..4
	above, below [len(normTails)]int
	bins         [chiBins]int // counts in bins equiprobable under Φ
}

// chiEdges[b] is the lower edge of bin b, Φ⁻¹(b/chiBins); bin 0 starts at −∞.
var chiEdges = func() (e [chiBins]float64) {
	e[0] = math.Inf(-1)
	for b := 1; b < chiBins; b++ {
		e[b] = math.Sqrt2 * math.Erfinv(2*float64(b)/chiBins-1)
	}
	return e
}()

// chiBin looks bins up through a grid of cells 1/chiRes wide over [chiLo,
// −chiLo), which holds every inner edge: chiStart[c] is the bin holding the
// left end of cell c, and no cell spans more than a few edges.
const (
	chiLo  = -3.0
	chiRes = 128
)

var chiStart = func() (s [-2 * chiLo * chiRes]int) {
	b := 0
	for c := range s {
		for b < chiBins-1 && chiLo+float64(c)/chiRes >= chiEdges[b+1] {
			b++
		}
		s[c] = b
	}
	return s
}()

// chiBin returns the equiprobable bin holding z.
func chiBin(z float64) int {
	c := int((z - chiLo) * chiRes)
	switch {
	case z < chiLo:
		return 0
	case c >= len(chiStart):
		return chiBins - 1
	}
	b := chiStart[c]
	for b < chiBins-1 && z >= chiEdges[b+1] {
		b++
	}
	return b
}

// normSummaries draws and summarises every seed once, for all the
// distribution tests.
var normSummaries = sync.OnceValue(func() []normSummary {
	out := make([]normSummary, len(normSeeds))
	buf := make([]float64, 1<<16)
	for s, seed := range normSeeds {
		r, sum := NewRNG(seed), &out[s]
		for left := normDraws; left > 0; left -= len(buf) {
			chunk := buf[:min(left, len(buf))]
			r.FillNorm(chunk, 1)
			var pow [5]float64
			for _, z := range chunk {
				z2 := z * z
				pow[1] += z
				pow[2] += z2
				pow[3] += z2 * z
				pow[4] += z2 * z2
				for k, x := range normTails {
					if z > x {
						sum.above[k]++
					} else if z < -x {
						sum.below[k]++
					}
				}
				sum.bins[chiBin(z)]++
			}
			for p := range pow {
				sum.pow[p] += pow[p]
			}
		}
	}
	return out
})

// TestNormFloat64Moments checks the sample mean, variance, skewness and
// excess kurtosis against 0, 1, 0 and 0, each within normTolSE
// large-sample standard errors (√(1/n), √(2/n), √(6/n), √(24/n)).
func TestNormFloat64Moments(t *testing.T) {
	const n = normDraws
	for s, sum := range normSummaries() {
		m := sum.pow[1] / n
		m2, m3, m4 := sum.pow[2]/n, sum.pow[3]/n, sum.pow[4]/n
		variance := m2 - m*m
		mu3 := m3 - 3*m*m2 + 2*m*m*m
		mu4 := m4 - 4*m*m3 + 6*m*m*m2 - 3*m*m*m*m
		for _, c := range []struct {
			name      string
			got, want float64
			se        float64
		}{
			{"mean", m, 0, math.Sqrt(1.0 / n)},
			{"variance", variance, 1, math.Sqrt(2.0 / n)},
			{"skewness", mu3 / math.Pow(variance, 1.5), 0, math.Sqrt(6.0 / n)},
			{"excess kurtosis", mu4/(variance*variance) - 3, 0, math.Sqrt(24.0 / n)},
		} {
			if z := (c.got - c.want) / c.se; math.Abs(z) > normTolSE {
				t.Errorf("seed %d: %s = %.6g, want %g (%.1f standard errors off)", normSeeds[s], c.name, c.got, c.want, z)
			}
		}
	}
}

// TestNormFloat64Tails checks the one-sided tail rates P(Z > k) and
// P(Z < −k) at every threshold of normTails against ½·erfc(k/√2), each
// within normTolSE binomial standard errors: a tail drawn with the wrong
// sign, scale or frequency fails here.
func TestNormFloat64Tails(t *testing.T) {
	const n = normDraws
	for s, sum := range normSummaries() {
		for k, x := range normTails {
			p := 0.5 * math.Erfc(x/math.Sqrt2)
			se := math.Sqrt(p * (1 - p) / n)
			for _, side := range []struct {
				name  string
				count int
			}{{"P(Z > %.4g)", sum.above[k]}, {"P(Z < -%.4g)", sum.below[k]}} {
				got := float64(side.count) / n
				if z := (got - p) / se; math.Abs(z) > normTolSE {
					t.Errorf("seed %d: "+side.name+" = %.4g, want %.4g (%.1f standard errors off)", normSeeds[s], x, got, p, z)
				}
			}
		}
	}
}

// TestNormFloat64ChiSquare bins the draws into chiBins bins equiprobable
// under Φ and checks Pearson's χ² against χ²(chiBins−1)'s 99.9 % point:
// a sampler whose shape is wrong anywhere — a wedge that accepts too much,
// a layer index correlated with the uniform — piles counts into some bins.
func TestNormFloat64ChiSquare(t *testing.T) {
	const expect = float64(normDraws) / chiBins
	for s, sum := range normSummaries() {
		chi := 0.0
		for _, c := range sum.bins {
			d := float64(c) - expect
			chi += d * d / expect
		}
		t.Logf("seed %d: χ² = %.1f", normSeeds[s], chi)
		if chi >= chiCrit {
			t.Errorf("seed %d: χ² = %.1f over %d equiprobable bins, at or above χ²(%d)'s 99.9 %% point %.2f", normSeeds[s], chi, chiBins, chiBins-1, chiCrit)
		}
	}
}
