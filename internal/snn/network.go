package snn

import (
	"fmt"
	"math"
)

// ResetMode selects what happens to the membrane potential when a neuron
// fires. snntorch (the paper's simulation substrate) supports both.
type ResetMode int

const (
	// ResetZero clears the MP to 0 on firing — the paper's Eq. 1b
	// behaviour and the default here.
	ResetZero ResetMode = iota
	// ResetSubtract subtracts the firing threshold from the MP, retaining
	// overdrive charge (snntorch's "subtract" mechanism). A strongly
	// overdriven neuron keeps firing on retained charge in later
	// timesteps.
	ResetSubtract
)

// String names the reset mode.
func (r ResetMode) String() string {
	switch r {
	case ResetZero:
		return "reset-zero"
	case ResetSubtract:
		return "reset-subtract"
	default:
		return fmt.Sprintf("ResetMode(%d)", int(r))
	}
}

// Params bundles the LIF parameters shared by all neurons of a network.
type Params struct {
	// Theta is the firing threshold θ. A neuron fires when MP > Theta
	// (strict, per Eq. 1b).
	Theta float64
	// Leak is the multiplicative membrane decay per timestep (snntorch's
	// beta). 1 means no leak, 0 means the MP is forgotten every step.
	Leak float64
	// WMax is the maximum programmable weight ωmax; WMin is -WMax.
	WMax float64
	// Reset selects the firing reset mechanism (default ResetZero).
	Reset ResetMode
}

// DefaultParams returns the parameter set used throughout the paper's
// evaluation (Section 5.1): θ = 0.5 and ωmax = 20·θ. The leak value is not
// reported in the paper; 0.9 is a typical snntorch default and none of the
// generated tests depend on it (every MP either crosses θ in the timestep it
// is charged or never does).
func DefaultParams() Params {
	return Params{Theta: 0.5, Leak: 0.9, WMax: 10}
}

// WMin returns the minimum programmable weight ωmin = -ωmax.
func (p Params) WMin() float64 { return -p.WMax }

// Validate reports an error for physically meaningless parameters.
func (p Params) Validate() error {
	if p.Theta <= 0 {
		return fmt.Errorf("snn: threshold must be positive, got %g", p.Theta)
	}
	if p.Leak < 0 || p.Leak > 1 {
		return fmt.Errorf("snn: leak must be in [0,1], got %g", p.Leak)
	}
	if p.WMax <= p.Theta {
		return fmt.Errorf("snn: ωmax (%g) must exceed θ (%g)", p.WMax, p.Theta)
	}
	if p.Reset != ResetZero && p.Reset != ResetSubtract {
		return fmt.Errorf("snn: unknown reset mode %d", int(p.Reset))
	}
	return nil
}

// Network is a fully connected SNN: an architecture, shared LIF parameters
// and one dense weight matrix per boundary. Weight matrices are stored
// row-major by presynaptic neuron: W[b][i*Arch[b+1]+j] is the weight from
// neuron i of layer b to neuron j of layer b+1.
//
// A Network doubles as a "test configuration" in the paper's sense: the
// generator emits Networks whose weights are the configuration to program.
// Those are read-only: configurations of one generated suite share the
// boundary arrays whose weights they have in common, and so do the
// networks quant.Program makes from them, so a caller that writes a
// generated (or programmed) configuration Clones it first. A Network from
// New or Clone owns its arrays.
type Network struct {
	Arch   Arch
	Params Params
	W      [][]float64
}

// New allocates a zero-weight network for the architecture. It panics on an
// invalid architecture or parameter set; construction sites are programmer
// errors, not runtime conditions.
func New(arch Arch, params Params) *Network {
	if err := arch.Validate(); err != nil {
		//lint:ignore no-panic construction-time programmer error, documented in the doc comment
		panic(err)
	}
	if err := params.Validate(); err != nil {
		//lint:ignore no-panic construction-time programmer error, documented in the doc comment
		panic(err)
	}
	w := make([][]float64, arch.Boundaries())
	for b := range w {
		w[b] = make([]float64, arch[b]*arch[b+1])
	}
	return &Network{Arch: arch.Clone(), Params: params, W: w}
}

// Clone returns a deep copy of the network, owning its arrays.
func (n *Network) Clone() *Network {
	c := New(n.Arch, n.Params)
	for b := range n.W {
		copy(c.W[b], n.W[b])
	}
	return c
}

// FillBoundary sets every weight of boundary b to w.
func (n *Network) FillBoundary(b int, w float64) {
	row := n.W[b]
	for i := range row {
		row[i] = w
	}
}

// Fill sets every weight in the network to w.
//
//lint:ignore dead-code tests in the root, core, faultsim, snn and variation packages build uniform networks through it
func (n *Network) Fill(w float64) {
	for b := range n.W {
		n.FillBoundary(b, w)
	}
}

// SetEntry sets the single weight from neuron i of layer b to neuron j of
// layer b+1.
func (n *Network) SetEntry(b, i, j int, w float64) {
	n.W[b][i*n.Arch[b+1]+j] = w
}

// Entry returns the single weight from neuron i of layer b to neuron j.
func (n *Network) Entry(b, i, j int) float64 {
	return n.W[b][i*n.Arch[b+1]+j]
}

// MaxAbsWeight returns the largest |w| in the network.
func (n *Network) MaxAbsWeight() float64 {
	m := 0.0
	for b := range n.W {
		for _, w := range n.W[b] {
			if a := math.Abs(w); a > m {
				m = a
			}
		}
	}
	return m
}
