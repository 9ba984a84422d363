// Package variation models stochastic weight variation of emerging-memory
// synapses (memristors): every programmed weight shifts from its intended
// value by an i.i.d. zero-mean Gaussian error with standard deviation σ,
// exactly the simulation model of the paper's Section 5.3.
//
// All sampling is driven by the deterministic RNG in internal/stats so that
// each simulated chip instance is reproducible from its seed.
package variation

import (
	"fmt"

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
// whose synapse devices each carry a fixed programming offset; a die that
// owns one network can take every configuration in place with ApplyInto,
// so programming it allocates nothing after the first configuration.
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
	if m.Zero() {
		return nil
	}
	e := &ErrorTensor{E: make([][]float64, arch.Boundaries())}
	for b := 0; b < arch.Boundaries(); b++ {
		row := make([]float64, arch[b]*arch[b+1])
		for i := range row {
			row[i] = m.Sigma * rng.NormFloat64()
		}
		e.E[b] = row
	}
	return e
}

// ApplyTo returns a new network holding net with the tensor added to every
// weight (see ApplyInto). A nil tensor returns net itself (no copy needed —
// the caller must not mutate it).
func (e *ErrorTensor) ApplyTo(net *snn.Network) *snn.Network {
	if e == nil {
		return net
	}
	c := snn.New(net.Arch, net.Params)
	e.ApplyInto(c, net)
	return c
}

// ApplyInto programs src into dst through the tensor: dst takes src's
// parameters and every weight becomes dst = src + E. dst must have src's
// architecture and the tensor must be non-nil. src is only read, so one
// shared configuration can be programmed into many dies concurrently.
func (e *ErrorTensor) ApplyInto(dst, src *snn.Network) {
	dst.Params = src.Params
	for b, row := range dst.W {
		w, err := src.W[b], e.E[b]
		for i := range row {
			row[i] = w[i] + err[i]
		}
	}
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
