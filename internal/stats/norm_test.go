package stats

import (
	"math"
	"testing"
)

// perVariateNorm is NormFloat64 as it was before FillNorm existed: the
// polar method one variate per call, through the RNG's cache. FillNorm and
// NormFloat64 must reproduce its stream exactly.
func perVariateNorm(r *RNG) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		//lint:ignore float-eq reference copy of the polar rejection, which needs the exact zero bit pattern
		if s >= 1 || s == 0 {
			continue
		}
		mag := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * mag
		r.hasGauss = true
		return u * mag
	}
}

// TestNormFloat64Pinned pins the literal bits of the first draws of one
// seed and the generator state they leave, so a change to the polar method
// itself — not only to how FillNorm loops over it — fails.
func TestNormFloat64Pinned(t *testing.T) {
	want := []uint64{
		0xbfd7935cf2f00882,
		0x3fd2083bb4df68cd,
		0xbfee345a5f5ea096,
		0xbfede80a55dc5cf4,
		0x3fef63bd4d9344cf,
		0x3ff9719e80dbaafc,
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
// reference loop scale * perVariateNorm bit for bit, over even and odd
// lengths, from a generator with and without a cached variate, and checks
// that both leave the generator in the same state: the next NormFloat64
// and the next Uint64 agree. The longest fill is long enough to take the
// rarely drawn corners of the polar method (s close to 0) on every seed.
func TestFillNormMatchesPerVariate(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 17, 64, 255, 1000, 100_001}
	for _, seed := range []uint64{1, 7, 271828} {
		for _, cached := range []bool{false, true} {
			for _, n := range lengths {
				for _, scale := range []float64{1, 0.05, -3} {
					got, want := NewRNG(seed), NewRNG(seed)
					if cached {
						got.NormFloat64()
						perVariateNorm(want)
						if !got.hasGauss || !want.hasGauss {
							t.Fatal("fixture broken: no cached variate after one draw")
						}
					}
					dst := make([]float64, n)
					got.FillNorm(dst, scale)
					for i, x := range dst {
						if w := scale * perVariateNorm(want); math.Float64bits(x) != math.Float64bits(w) {
							t.Fatalf("seed %d cached=%v n=%d scale=%g: dst[%d] = %v, per-variate %v", seed, cached, n, scale, i, x, w)
						}
					}
					if g, w := got.NormFloat64(), perVariateNorm(want); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d cached=%v n=%d: next NormFloat64 %v, per-variate %v", seed, cached, n, g, w)
					}
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d cached=%v n=%d: next Uint64 %#x, per-variate %#x", seed, cached, n, g, w)
					}
				}
			}
		}
	}
}
