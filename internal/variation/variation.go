// Package variation models stochastic weight variation of emerging-memory
// synapses (memristors): every programmed weight shifts from its intended
// value by an i.i.d. zero-mean Gaussian error with standard deviation σ,
// exactly the simulation model of the paper's Section 5.3.
//
// A chip's variation is drawn in one of two forms. An ErrorTensor holds
// one error per synapse. An AtomError holds what a tester die reads: the
// deviation of boundary 0 summed per input atom and layer-1 neuron, the
// per-synapse error of every deeper boundary, and the single boundary-0
// synapses the chip's defect reads, each drawn given its atom's sum. Both
// are the same model; the second samples boundary 0 through the sums the
// die reads.
//
// All sampling is driven by the deterministic RNG in internal/stats so that
// each simulated chip instance is reproducible from its seed.
package variation

import (
	"fmt"
	"math"
	"slices"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// Model describes one variation regime.
type Model struct {
	// Sigma is the standard deviation of the per-weight error, in absolute
	// weight units (the paper quotes it as a fraction of θ).
	Sigma float64
}

// None returns the no-variation regime.
func None() Model { return Model{Sigma: 0} }

// OfTheta builds a regime from the paper's "% of θ" convention:
// OfTheta(0.10, θ) is σ = 10 % θ.
func OfTheta(fraction, theta float64) Model {
	return Model{Sigma: fraction * theta}
}

// Zero reports whether the regime injects no variation.
func (m Model) Zero() bool { return m.Sigma <= 0 }

// String renders the regime for reports.
func (m Model) String() string {
	if m.Zero() {
		return "no variation"
	}
	return fmt.Sprintf("σ=%g", m.Sigma)
}

// ErrorTensor is one chip's frozen per-synapse weight deviation: device i
// always stores its programmed weight shifted by E_i — the paper's CUT model
// (Section 5.3: "we modify each weight of the CUT by adding a random
// variable of a zero-mean normal distribution"). Sampling the tensor once
// per chip and applying it to every programmed configuration models a die
// whose synapse devices each carry a fixed programming offset. A simulator
// can read a configuration through the tensor (snn.Simulator.Bind with E
// as the offset) without writing the sum. A tester die holds a tensor only
// for the boundaries past the first (AtomError.Deep).
//
// Deliberately NO clamping to [ωmin, ωmax]: clamping would bias every
// saturated weight toward zero (a weight at -ωmax can only move up), which
// systematically shifts the Ω sums of test configurations built from
// saturated weights and fabricates overkill the unbiased model does not
// have. The chip package separately models physical range limits.
type ErrorTensor struct {
	E [][]float64 // same shape as Network.W
}

// SampleError draws a chip's error tensor for an architecture: an
// independent N(0, σ²) error per synapse. A zero model returns nil, meaning
// "no deviation".
func (m Model) SampleError(arch snn.Arch, rng *stats.RNG) *ErrorTensor {
	return m.SampleInto(nil, arch, rng)
}

// SampleInto draws a chip's error tensor like SampleError, into e's rows
// when e has arch's shape, and returns the tensor it filled: e itself, or a
// fresh tensor when e is nil or shaped otherwise (e is then left as it
// was). From the same generator state it draws SampleError's tensor bit
// for bit, so a caller that tests die after die can sample each into one
// tensor. A zero model returns nil and touches neither e nor rng.
func (m Model) SampleInto(e *ErrorTensor, arch snn.Arch, rng *stats.RNG) *ErrorTensor {
	if m.Zero() {
		return nil
	}
	if e == nil || arch.CheckWeights(e.E) != nil {
		e = &ErrorTensor{E: make([][]float64, arch.Boundaries())}
		for b := range e.E {
			e.E[b] = make([]float64, arch[b]*arch[b+1])
		}
	}
	for _, row := range e.E {
		rng.FillNorm(row, m.Sigma)
	}
	return e
}

// AtomError is one chip's variation in the form a tester die reads it, for
// an architecture whose input neurons are partitioned into atoms: neurons
// driven by exactly the same test items. An item's pattern is then a union
// of atoms, and the deviation boundary 0 adds to layer-1 neuron j for it
// is the sum, over its atoms A, of Σ_{i∈A} E_ij. Each such atom sum is
// N(0, |A|σ²), independent across (A, j), because the atoms are disjoint:
// drawing the sums directly is the per-synapse model, exact in
// distribution for everything that reads boundary 0 through input sums.
// A die reads a single boundary-0 synapse only for its defect (a stuck or
// always-on synapse, or a forced input neuron's row); Reads draws those
// given the atom sums, so the joint law of every quantity the die reads
// stays the per-synapse model's.
type AtomError struct {
	// Atoms[a][j] is the deviation of atom a's synapses into layer-1
	// neuron j, summed.
	Atoms [][]float64
	// Deep is the per-synapse error of every boundary past the first: the
	// error tensor of the architecture without its input layer.
	Deep  *ErrorTensor
	sigma float64
	size  []int // input neurons in each atom
	// Reads's state, set up by its first call on a sample: per (atom, j),
	// what the chip's reads leave of the atom sum, and how many of the
	// atom's synapses into j are not read yet.
	read  bool
	left  []float64
	count []int
	rows  [][]float64 // per input neuron: the errors Reads drew
	buf   []float64   // backing of rows
}

// SampleAtoms draws a chip's variation for arch as an AtomError whose
// atoms hold size[a] input neurons each: every atom sum, atom by atom,
// each row of arch[1] sums a FillNorm at scale σ√size[a], then Deep, as
// SampleInto draws a tensor for arch[1:]. It draws into e when e was drawn
// for the same arch and atom sizes, reusing its rows, and otherwise into a
// fresh AtomError; it returns the one it filled. A zero model returns nil
// and touches neither e nor rng.
func (m Model) SampleAtoms(e *AtomError, arch snn.Arch, size []int, rng *stats.RNG) *AtomError {
	if m.Zero() {
		return nil
	}
	n := arch[1]
	if e == nil || len(e.Atoms[0]) != n || !slices.Equal(e.size, size) {
		sums := make([]float64, len(size)*n)
		e = &AtomError{Atoms: make([][]float64, len(size)), size: slices.Clone(size)}
		for a := range e.Atoms {
			e.Atoms[a] = sums[a*n : (a+1)*n : (a+1)*n]
		}
	}
	e.sigma, e.read = m.Sigma, false
	for a, row := range e.Atoms {
		rng.FillNorm(row, m.Sigma*math.Sqrt(float64(size[a])))
	}
	e.Deep = m.SampleInto(e.Deep, arch[1:], rng)
	return e
}

// Reads draws the error of each listed boundary-0 synapse, in list order,
// and returns them as one row per input neuron, the form snn.Input.Off
// reads: row i holds the draws of input neuron i's listed synapses at
// their post indices, and is nil when none is listed. It returns nil for
// an empty list. atom maps each input neuron to its atom. The rows are
// valid until the next call.
//
// Each draw is exact given what the chip has drawn: a synapse of atom A
// into neuron j, whose atom sum still holds s over m synapses not read
// yet, takes E ~ N(s/m, σ²(1 − 1/m)), the law of one of m i.i.d. N(0, σ²)
// errors given their sum; the atom then holds s − E over m − 1, for this
// call and later ones on the same sample. A list holds each synapse once;
// its order (SynapseID order, from snn.Modifiers.FirstBoundaryReads) fixes
// the draws.
func (e *AtomError) Reads(reads []snn.SynapseID, atom []int, rng *stats.RNG) [][]float64 {
	if len(reads) == 0 {
		return nil
	}
	n := len(e.Atoms[0])
	if !e.read {
		e.left, e.count = e.left[:0], e.count[:0]
		for a, row := range e.Atoms {
			e.left = append(e.left, row...)
			for range row {
				e.count = append(e.count, e.size[a])
			}
		}
		e.read = true
	}
	if e.rows == nil {
		e.rows = make([][]float64, len(atom))
	}
	runs := 0 // an upper bound on the rows: one per run of equal Pre
	for k, id := range reads {
		if k == 0 || id.Pre != reads[k-1].Pre {
			runs++
		}
	}
	e.buf = slices.Grow(e.buf[:0], runs*n)[:runs*n]
	clear(e.buf)
	clear(e.rows)
	next := 0
	for _, id := range reads {
		row := e.rows[id.Pre]
		if row == nil {
			row = e.buf[next*n : (next+1)*n : (next+1)*n]
			e.rows[id.Pre] = row
			next++
		}
		k := atom[id.Pre]*n + id.Post
		s, m := e.left[k], e.count[k]
		d := s
		if m > 1 {
			d = s/float64(m) + e.sigma*math.Sqrt(1-1/float64(m))*rng.NormFloat64()
		}
		e.left[k], e.count[k] = s-d, m-1
		row[id.Post] = d
	}
	return e.rows
}

// ApplyTo returns a new network holding net with the tensor added to every
// weight: each weight is net's plus E, rounded, and the parameters are
// net's. A nil tensor returns net itself (no copy needed — the caller must
// not mutate it). net is only read. A simulator bound to net through the
// tensor (snn.Simulator.Bind) reads the same weights without the copy.
func (e *ErrorTensor) ApplyTo(net *snn.Network) *snn.Network {
	if e == nil {
		return net
	}
	c := snn.New(net.Arch, net.Params)
	for b, row := range c.W {
		w, err := net.W[b], e.E[b]
		for i := range row {
			row[i] = w[i] + err[i]
		}
	}
	return c
}

// Nu returns the paper's ν for this regime: the maximum number of
// simultaneously stimulated neurons whose accumulated weight error still
// leaves every downstream output unchanged with confidence c standard
// deviations (Eq. 4). See stats.Nu.
func (m Model) Nu(omegaMax, c float64) int {
	return stats.Nu(omegaMax, m.Sigma, c)
}

// Negligible reports whether this regime is "negligible" for an
// architecture per Section 4.2: ν exceeds every layer width, so the
// no-variation construction already tolerates it.
func (m Model) Negligible(arch snn.Arch, omegaMax, c float64) bool {
	return m.Nu(omegaMax, c) > arch.MaxWidth()
}
