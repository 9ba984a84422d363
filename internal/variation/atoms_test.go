package variation

import (
	"math"
	"slices"
	"testing"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// perVariateSampleAtoms is SampleAtoms written out, one draw at a time:
// each atom's row of sums, σ√size per variate, then the deeper boundaries'
// tensor as the per-variate loop draws it for arch[1:].
func perVariateSampleAtoms(m Model, arch snn.Arch, size []int, rng *stats.RNG) ([][]float64, [][]float64) {
	atoms := make([][]float64, len(size))
	for a := range atoms {
		atoms[a] = make([]float64, arch[1])
		for j := range atoms[a] {
			atoms[a][j] = m.Sigma * math.Sqrt(float64(size[a])) * rng.NormFloat64()
		}
	}
	return atoms, perVariateSampleError(m, arch[1:], rng)
}

// TestSampleAtomsMatchesPerVariate pins SampleAtoms' stream against the
// per-variate loop, bit for bit, on the paper's 4-layer model and on small
// and two-layer architectures, drawn die after die into one AtomError (the
// tester's pool-slot reuse) and into fresh ones; the generator ends where
// the loop leaves it, and a zero model draws nothing.
func TestSampleAtomsMatchesPerVariate(t *testing.T) {
	m := OfTheta(0.10, 0.5)
	for _, c := range []struct {
		arch snn.Arch
		size []int
	}{
		{snn.Arch{576, 256, 32, 10}, []int{1, 575}},
		{snn.Arch{9, 4, 3, 2}, []int{5, 1, 3}},
		{snn.Arch{4, 3}, []int{4}},
	} {
		var slot *AtomError
		for seed := uint64(1); seed <= 3; seed++ {
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			e := m.SampleAtoms(slot, c.arch, c.size, got)
			if slot != nil && e != slot {
				t.Fatalf("%v seed %d: a slot of the right shape was not reused", c.arch, seed)
			}
			slot = e
			atoms, deep := perVariateSampleAtoms(m, c.arch, c.size, want)
			for a := range atoms {
				if !slices.EqualFunc(e.Atoms[a], atoms[a], sameBits) {
					t.Fatalf("%v seed %d: atom %d sums differ from the per-variate loop", c.arch, seed, a)
				}
			}
			sameTensor(t, c.arch.String(), e.Deep, deep)
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%v seed %d: next Uint64 %#x, per-variate %#x", c.arch, seed, g, w)
			}
		}
		other := m.SampleAtoms(slot, c.arch, append(slices.Clone(c.size), 1), stats.NewRNG(1))
		if other == slot || len(other.Atoms) != len(c.size)+1 {
			t.Fatalf("%v: an AtomError drawn for other atoms was reused", c.arch)
		}
		rng := stats.NewRNG(4)
		if None().SampleAtoms(slot, c.arch, c.size, rng) != nil || rng.Uint64() != stats.NewRNG(4).Uint64() {
			t.Fatalf("%v: a zero model drew variation", c.arch)
		}
	}
}

func sameBits(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }

// moments accumulates the sample means and covariances of a few jointly
// drawn quantities.
type moments struct {
	n      int
	sum    []float64
	prod   [][]float64
	names  []string
	sigma2 float64
}

func newMoments(sigma float64, names ...string) *moments {
	m := &moments{sum: make([]float64, len(names)), prod: make([][]float64, len(names)), names: names, sigma2: sigma * sigma}
	for i := range m.prod {
		m.prod[i] = make([]float64, len(names))
	}
	return m
}

func (m *moments) add(x ...float64) {
	m.n++
	for i := range x {
		m.sum[i] += x[i]
		for j := range x {
			m.prod[i][j] += x[i] * x[j]
		}
	}
}

// check fails the test unless every mean is 0 and every covariance is
// cov[i][j]·σ², each within five standard errors of a bivariate normal
// sample's.
func (m *moments) check(t *testing.T, cov [][]float64) {
	t.Helper()
	n := float64(m.n)
	for i := range m.sum {
		mean := m.sum[i] / n
		if se := math.Sqrt(cov[i][i] * m.sigma2 / n); math.Abs(mean) > 5*se {
			t.Errorf("mean of %s = %.4g, want 0 ± %.2g", m.names[i], mean, 5*se)
		}
		for j := i; j < len(m.sum); j++ {
			got := m.prod[i][j]/n - mean*m.sum[j]/n
			want := cov[i][j] * m.sigma2
			se := math.Sqrt((cov[i][i]*cov[j][j]+cov[i][j]*cov[i][j])/n) * m.sigma2
			if math.Abs(got-want) > 5*se {
				t.Errorf("cov(%s, %s) = %.4g, want %.4g ± %.2g", m.names[i], m.names[j], got, want, 5*se)
			}
		}
	}
}

// TestAtomReadsJointMoments checks the conditional draw's joint law on
// chips drawn die after die into one AtomError. An atom of m synapses into
// neuron j sums to N(0, mσ²); a read of one of them must be N(0, σ²) and
// uncorrelated with the rest of the atom, whose variance is (m − 1)σ², as
// if each synapse had been drawn on its own. Two reads in one atom are
// uncorrelated with each other and with the m − 2 synapses left, reads
// into different neurons are independent, and a read of an atom of one
// synapse returns that atom's sum exactly. An unconditional draw, a
// remainder not carried from one read to the next or not reset between
// chips fails these moments.
func TestAtomReadsJointMoments(t *testing.T) {
	arch := snn.Arch{9, 4, 2}
	atom := []int{0, 0, 0, 0, 0, 1, 2, 2, 2} // atoms of 5, 1 and 3 input neurons
	size := []int{5, 1, 3}
	const sigma, n = 0.5, 20000
	m := Model{Sigma: sigma}
	reads := []snn.SynapseID{
		{Boundary: 0, Pre: 1, Post: 3}, {Boundary: 0, Pre: 2, Post: 1}, {Boundary: 0, Pre: 3, Post: 3},
		{Boundary: 0, Pre: 5, Post: 0},
		{Boundary: 0, Pre: 6, Post: 0}, {Boundary: 0, Pre: 6, Post: 1}, {Boundary: 0, Pre: 6, Post: 2}, {Boundary: 0, Pre: 6, Post: 3},
	}
	one := newMoments(sigma, "read", "rest")                         // atom 0 into neuron 1: one read
	two := newMoments(sigma, "first", "second", "rest")              // atom 0 into neuron 3: two reads
	row := newMoments(sigma, "row j0", "row j1", "row j2", "row j3") // input 6's whole row, atom 2
	var e *AtomError
	rng := stats.NewRNG(17)
	for k := 0; k < n; k++ {
		e = m.SampleAtoms(e, arch, size, rng)
		sums := [][]float64{slices.Clone(e.Atoms[0]), slices.Clone(e.Atoms[1]), slices.Clone(e.Atoms[2])}
		rows := e.Reads(reads, atom, rng)
		one.add(rows[2][1], sums[0][1]-rows[2][1])
		two.add(rows[1][3], rows[3][3], sums[0][3]-rows[1][3]-rows[3][3])
		row.add(rows[6][0], rows[6][1], rows[6][2], rows[6][3])
		if rows[5][0] != sums[1][0] {
			t.Fatalf("chip %d: the read of a one-synapse atom is %v, its sum %v", k, rows[5][0], sums[1][0])
		}
		for i, r := range rows {
			if r != nil && !slices.ContainsFunc(reads, func(id snn.SynapseID) bool { return id.Pre == i }) {
				t.Fatalf("chip %d: input neuron %d has a row but no listed read", k, i)
			}
		}
		if !slices.Equal(e.Atoms[0], sums[0]) {
			t.Fatalf("chip %d: Reads changed the atom sums", k)
		}
	}
	one.check(t, [][]float64{{1, 0}, {0, 4}})
	two.check(t, [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 3}})
	row.check(t, [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	if got := e.Reads(nil, atom, rng); got != nil {
		t.Errorf("an empty read list returned rows %v", got)
	}
}
