// Package snn implements the behavioural Spiking Neural Network model the
// paper generates tests for: fully connected layers of Leaky
// Integrate-and-Fire (LIF) neurons driven by binary spikes (Section 2.1,
// Eq. 1a/1b).
//
// The package replaces the snntorch substrate used in the paper. Simulation
// is time-stepped: in every timestep the input layer fires according to the
// applied pattern and the wavefront sweeps through all layers, so a single
// timestep carries a spike from the primary inputs to the primary outputs.
// Each LIF neuron keeps a membrane potential (MP) that leaks multiplicatively,
// integrates the weighted sum of incoming spikes, fires when MP exceeds its
// threshold and then resets to zero.
//
// Indexing: code is 0-based. Layer 0 is the paper's layer 1 (the input
// layer); boundary b holds the weights between layer b and layer b+1, i.e.
// the paper's w^{b+1,i,j}.
package snn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Arch describes a fully connected SNN as the neuron count of each layer,
// input layer first. The paper's 4-layer model is Arch{576, 256, 32, 10}.
type Arch []int

// Validate reports an error when the architecture cannot form a network:
// fewer than two layers or a non-positive layer width.
func (a Arch) Validate() error {
	if len(a) < 2 {
		return errors.New("snn: architecture needs at least two layers")
	}
	for k, n := range a {
		if n <= 0 {
			return fmt.Errorf("snn: layer %d has non-positive width %d", k, n)
		}
	}
	return nil
}

// ParseArch reads an architecture in the dash notation String prints,
// e.g. "576-256-32-10", and validates it.
func ParseArch(s string) (Arch, error) {
	parts := strings.Split(s, "-")
	arch := make(Arch, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("snn: bad layer width %q in %q", p, s)
		}
		arch[i] = n
	}
	return arch, arch.Validate()
}

// Layers returns the number of neuron layers (the paper's L).
func (a Arch) Layers() int { return len(a) }

// Inputs returns the width of the input layer.
func (a Arch) Inputs() int { return a[0] }

// Outputs returns the width of the output layer.
func (a Arch) Outputs() int { return a[len(a)-1] }

// Boundaries returns the number of weight boundaries, L-1.
func (a Arch) Boundaries() int { return len(a) - 1 }

// Neurons returns the total number of neurons, including input neurons.
func (a Arch) Neurons() int {
	n := 0
	for _, w := range a {
		n += w
	}
	return n
}

// HiddenAndOutputNeurons returns the number of neurons that carry LIF
// dynamics, i.e. everything except the input layer. Neuron faults are
// enumerated over exactly this population (paper Section 5.2).
func (a Arch) HiddenAndOutputNeurons() int {
	return a.Neurons() - a.Inputs()
}

// Synapses returns the total number of synapses across all boundaries.
func (a Arch) Synapses() int {
	s := 0
	for b := 0; b < a.Boundaries(); b++ {
		s += a[b] * a[b+1]
	}
	return s
}

// CheckWeights reports an error unless rows has the shape of a network's
// weights (Network.W): one row per boundary, row b holding a[b]·a[b+1]
// values.
func (a Arch) CheckWeights(rows [][]float64) error {
	if len(rows) != a.Boundaries() {
		return fmt.Errorf("snn: %d weight rows, architecture %v has %d boundaries", len(rows), a, a.Boundaries())
	}
	for b, row := range rows {
		if want := a[b] * a[b+1]; len(row) != want {
			return fmt.Errorf("snn: boundary %d has %d weights, want %d", b, len(row), want)
		}
	}
	return nil
}

// MaxWidth returns the widest layer, used when deciding whether weight
// variation is "negligible" (ν > max width, paper Section 4.2).
func (a Arch) MaxWidth() int {
	m := 0
	for _, n := range a {
		if n > m {
			m = n
		}
	}
	return m
}

// Clone returns an independent copy of the architecture.
func (a Arch) Clone() Arch {
	c := make(Arch, len(a))
	copy(c, a)
	return c
}

// Equal reports whether two architectures are identical.
func (a Arch) Equal(b Arch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the architecture in the paper's dash notation,
// e.g. "576-256-32-10".
func (a Arch) String() string {
	s := ""
	for i, n := range a {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", n)
	}
	return s
}

// NeuronID addresses one neuron as (layer, index), both 0-based.
type NeuronID struct {
	Layer int
	Index int
}

// String renders the ID in the paper's n^{k,i} style (1-based, as printed).
func (n NeuronID) String() string {
	return fmt.Sprintf("n[%d,%d]", n.Layer+1, n.Index+1)
}

// SynapseID addresses one synapse as (boundary, pre, post): the connection
// from neuron pre in layer boundary to neuron post in layer boundary+1.
type SynapseID struct {
	Boundary int
	Pre      int
	Post     int
}

// String renders the ID in the paper's w^{k,i,j} style (1-based, as printed).
func (s SynapseID) String() string {
	return fmt.Sprintf("w[%d,%d,%d]", s.Boundary+1, s.Pre+1, s.Post+1)
}
