package stats

import (
	"slices"
	"testing"
)

// denseChoose is Choose's definition run on a materialised [0, n): the
// partial Fisher–Yates shuffle, position i swapped with i + Intn(n−i).
func denseChoose(r *RNG, n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// TestChooseIsPartialFisherYates: Choose returns k distinct indices of
// [0, n), equal, with the same draws, to the dense partial shuffle, leaves
// the generator where the dense shuffle leaves it, and a shorter draw is a
// prefix of a longer one from the same seed. The sizes straddle the switch
// from the map to the materialised shuffle at k = n/32, and the map form
// is also checked on its own at every size.
func TestChooseIsPartialFisherYates(t *testing.T) {
	forms := []struct {
		name   string
		choose func(r *RNG, n, k int) []int
	}{{"Choose", (*RNG).Choose}, {"chooseSparse", (*RNG).chooseSparse}}
	for _, n := range []int{1, 2, 3, 10, 64, 1000, 155968} {
		for _, k := range []int{0, 1, 2, 5, 64, 256, n / 32, n/32 + 1, n - 1, n} {
			if k < 0 || k > n {
				continue
			}
			for _, seed := range []uint64{1, 7, 90210} {
				for _, f := range forms {
					r, d := NewRNG(seed), NewRNG(seed)
					got, want := f.choose(r, n, k), denseChoose(d, n, k)
					if !slices.Equal(got, want) {
						t.Fatalf("%s(%d, %d) seed %d = %v, dense shuffle %v", f.name, n, k, seed, got, want)
					}
					if r.Uint64() != d.Uint64() {
						t.Fatalf("%s(%d, %d) seed %d left the generator elsewhere than the dense shuffle", f.name, n, k, seed)
					}
					seen := make(map[int]bool, k)
					for _, v := range got {
						if v < 0 || v >= n || seen[v] {
							t.Fatalf("%s(%d, %d) seed %d: %d out of range or repeated in %v", f.name, n, k, seed, v, got)
						}
						seen[v] = true
					}
					if k > 0 {
						if short := f.choose(NewRNG(seed), n, k-1); !slices.Equal(short, got[:k-1]) {
							t.Fatalf("%s(%d, %d) seed %d is not a prefix of %s(%d, %d)", f.name, n, k-1, seed, f.name, n, k)
						}
					}
				}
			}
		}
	}
	r := NewRNG(4)
	assertPanics(t, "Choose(3, 4)", func() { r.Choose(3, 4) })
	assertPanics(t, "Choose(3, -1)", func() { r.Choose(3, -1) })
}

// TestChooseAllIsPermutation: Choose(n, n) holds every index of [0, n)
// once.
func TestChooseAllIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 17, 500} {
		p := NewRNG(uint64(n)).Choose(n, n)
		sorted := slices.Clone(p)
		slices.Sort(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Choose(%d, %d) = %v is not a permutation", n, n, p)
			}
		}
	}
}

// The χ² fixture: chooseSeeds draws of chooseK from chooseN.
const (
	chooseN, chooseK = 37, 5
	chooseSeeds      = 20000
	// chooseCrit is χ²(36)'s 99.9 % point: both statistics below have
	// chooseN − 1 degrees of freedom.
	chooseCrit = 67.99
)

// chooseCounts draws Choose(chooseN, chooseK) once per seed
// 1..chooseSeeds and returns, per index, how often it came first and how
// often it was drawn at all.
func chooseCounts() (first, member [chooseN]int) {
	for s := 1; s <= chooseSeeds; s++ {
		c := NewRNG(uint64(s)).Choose(chooseN, chooseK)
		first[c[0]]++
		for _, v := range c {
			member[v]++
		}
	}
	return first, member
}

// TestChooseUniform runs two χ² tests over a fixed set of seeds. The first
// draw must be uniform over [0, n). Membership must be uniform too: each
// index lies in a k-sample with probability k/n. Its counts are binomial
// and sum to seeds·k, so each squared deviation is scaled by the binomial
// variance E·(1 − k/n); the statistic is then χ² with n − 1 degrees of
// freedom, like the first-position one. At this size Choose shuffles a
// materialised [0, n); TestChooseIsPartialFisherYates ties the map form to
// the same draws.
func TestChooseUniform(t *testing.T) {
	first, member := chooseCounts()
	var chiFirst, chiMember float64
	eFirst := float64(chooseSeeds) / chooseN
	p := float64(chooseK) / chooseN
	eMember := float64(chooseSeeds) * p
	for i := 0; i < chooseN; i++ {
		d := float64(first[i]) - eFirst
		chiFirst += d * d / eFirst
		d = float64(member[i]) - eMember
		chiMember += d * d / (eMember * (1 - p))
	}
	if chiFirst > chooseCrit {
		t.Errorf("first position: χ² = %.2f over %d bins, above %.2f (counts %v)", chiFirst, chooseN, chooseCrit, first)
	}
	if chiMember > chooseCrit {
		t.Errorf("membership: χ² = %.2f over %d bins, above %.2f (counts %v)", chiMember, chooseN, chooseCrit, member)
	}
	t.Logf("χ²: first position %.2f, membership %.2f (critical %.2f)", chiFirst, chiMember, chooseCrit)
}
