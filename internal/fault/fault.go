// Package fault defines the five behavioural fault models the paper adopts
// from Tseng et al. (ICCAD'21) — NASF, ESF, HSF, SWF and SASF — along with
// fault-universe enumeration and the mapping of each fault onto simulator
// modifiers.
//
// Fault universes follow the paper's Section 5.2 conventions: neuron faults
// occur in every neuron except input neurons; synapse faults occur in every
// synapse. Fault.In is the one check that a fault belongs to a chip.
package fault

import (
	"fmt"
	"strings"

	"neurotest/internal/snn"
)

// Kind identifies one of the five behavioural fault models.
type Kind int

const (
	// NASF (Neuron-Always-Spike Fault) makes a neuron fire every timestep.
	NASF Kind = iota
	// ESF (Easy-to-Spike Fault) lowers a neuron's threshold to θ̂ < θ.
	ESF
	// HSF (Hard-to-Spike Fault) raises a neuron's threshold to θ̂ > θ.
	HSF
	// SWF (Stuck-Weight Fault) sticks a synapse's weight at ω̂.
	SWF
	// SASF (Synapse-Always-Spike Fault) makes a synapse transmit a spike
	// every timestep regardless of its presynaptic neuron.
	SASF

	numKinds
)

// Kinds lists all fault models in the paper's presentation order.
func Kinds() []Kind { return []Kind{NASF, ESF, HSF, SWF, SASF} }

// NeuronKinds lists the fault models that attach to neurons.
func NeuronKinds() []Kind { return []Kind{NASF, ESF, HSF} }

// String returns the paper's abbreviation for the fault model.
func (k Kind) String() string {
	switch k {
	case NASF:
		return "NASF"
	case ESF:
		return "ESF"
	case HSF:
		return "HSF"
	case SWF:
		return "SWF"
	case SASF:
		return "SASF"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind reads a fault model as requests name it: one of the five
// abbreviations in any case, or "all" (and the empty string) for every
// model, which sets all. Surrounding space is ignored.
func ParseKind(s string) (k Kind, all bool, err error) {
	name := strings.TrimSpace(s)
	if name == "" || strings.EqualFold(name, "all") {
		return 0, true, nil
	}
	for _, k := range Kinds() {
		if strings.EqualFold(name, k.String()) {
			return k, false, nil
		}
	}
	return 0, false, fmt.Errorf("unknown fault kind %q (want NASF, ESF, HSF, SWF, SASF or all)", s)
}

// IsNeuronFault reports whether the model attaches to a neuron.
func (k Kind) IsNeuronFault() bool { return k == NASF || k == ESF || k == HSF }

// IsSynapseFault reports whether the model attaches to a synapse.
func (k Kind) IsSynapseFault() bool { return k == SWF || k == SASF }

// Values holds the fault-strength parameters of the models that have one.
// The paper's evaluation (Section 5.1) uses θ̂ = 0.1·θ for ESF,
// θ̂ = 1.9·θ for HSF and ω̂ = 2·θ for SWF.
type Values struct {
	// ESFTheta is the faulty threshold θ̂ of an easy-to-spike neuron.
	ESFTheta float64
	// HSFTheta is the faulty threshold θ̂ of a hard-to-spike neuron.
	HSFTheta float64
	// SWFOmega is the stuck weight ω̂.
	SWFOmega float64
}

// PaperValues returns the fault parameters of the paper's evaluation for a
// given good threshold θ.
func PaperValues(theta float64) Values {
	return Values{
		ESFTheta: 0.1 * theta,
		HSFTheta: 1.9 * theta,
		SWFOmega: 2 * theta,
	}
}

// Validate checks the parameters against a threshold: ESF must lower it and
// HSF must raise it.
func (v Values) Validate(theta float64) error {
	if v.ESFTheta >= theta {
		return fmt.Errorf("fault: ESF θ̂ (%g) must be below θ (%g)", v.ESFTheta, theta)
	}
	if v.HSFTheta <= theta {
		return fmt.Errorf("fault: HSF θ̂ (%g) must be above θ (%g)", v.HSFTheta, theta)
	}
	return nil
}

// Fault is a single fault instance: a model plus the site it attaches to.
// Neuron faults use Neuron; synapse faults use Synapse.
type Fault struct {
	Kind    Kind
	Neuron  snn.NeuronID
	Synapse snn.SynapseID
}

// NewNeuronFault constructs a neuron fault. It panics when kind is not a
// neuron fault model.
func NewNeuronFault(kind Kind, id snn.NeuronID) Fault {
	if !kind.IsNeuronFault() {
		//lint:ignore no-panic constructor misuse is a programmer error; Universe and the generators only pass matching kinds
		panic(fmt.Sprintf("fault: %v is not a neuron fault model", kind))
	}
	return Fault{Kind: kind, Neuron: id}
}

// NewSynapseFault constructs a synapse fault. It panics when kind is not a
// synapse fault model.
func NewSynapseFault(kind Kind, id snn.SynapseID) Fault {
	if !kind.IsSynapseFault() {
		//lint:ignore no-panic constructor misuse is a programmer error; Universe and the generators only pass matching kinds
		panic(fmt.Sprintf("fault: %v is not a synapse fault model", kind))
	}
	return Fault{Kind: kind, Synapse: id}
}

// In reports whether f is a fault of a chip of the valid architecture
// arch: its kind is one of the five models and its site exists, a neuron
// of any layer for NASF, ESF and HSF or a synapse between adjacent layers
// for SWF and SASF. The input layer counts: the simulator forces an input
// neuron to spike under NASF and ignores ESF and HSF there, so such faults
// simulate although the paper's universes (and Universe) leave them out.
//
// It is the one in-architecture check: collapsing, the tester's fault
// campaigns, the repair planner and the CLI's fault parser all call it. It
// inlines, so the compares rely on the kinds' order (neuron models first).
func (f *Fault) In(arch snn.Arch) bool {
	switch {
	case uint(f.Kind) <= uint(HSF): // a neuron fault
		n := f.Neuron
		return uint(n.Layer) < uint(len(arch)) && uint(n.Index) < uint(arch[n.Layer])
	case uint(f.Kind) <= uint(SASF): // a synapse fault
		s := f.Synapse
		return uint(s.Boundary) < uint(len(arch)-1) && uint(s.Pre) < uint(arch[s.Boundary]) && uint(s.Post) < uint(arch[s.Boundary+1])
	}
	return false
}

// String renders the fault site for diagnostics.
func (f Fault) String() string {
	if f.Kind.IsNeuronFault() {
		return fmt.Sprintf("%v@%v", f.Kind, f.Neuron)
	}
	return fmt.Sprintf("%v@%v", f.Kind, f.Synapse)
}

// Modifiers translates the fault into simulator modifiers given the fault
// parameters. The returned value injects exactly this one fault.
func (f Fault) Modifiers(v Values) *snn.Modifiers {
	m := &snn.Modifiers{}
	switch f.Kind {
	case NASF:
		m.ForceSpike = map[snn.NeuronID]bool{f.Neuron: true}
	case ESF:
		m.ThresholdOverride = map[snn.NeuronID]float64{f.Neuron: v.ESFTheta}
	case HSF:
		m.ThresholdOverride = map[snn.NeuronID]float64{f.Neuron: v.HSFTheta}
	case SWF:
		m.StuckWeight = map[snn.SynapseID]float64{f.Synapse: v.SWFOmega}
	case SASF:
		m.AlwaysOnSynapse = map[snn.SynapseID]bool{f.Synapse: true}
	default:
		panic(fmt.Sprintf("fault: unknown kind %v", f.Kind))
	}
	return m
}

// Universe enumerates every fault of one model for an architecture, in the
// order UniverseAt defines (layer-major, then neuron / pre / post index).
func Universe(arch snn.Arch, kind Kind) []Fault {
	n := UniverseSize(arch, kind)
	if n <= 0 {
		return nil
	}
	out := make([]Fault, n)
	for i := range out {
		out[i], _ = UniverseAt(arch, kind, i)
	}
	return out
}

// UniverseAt returns the i-th fault of Universe(arch, kind) without
// materialising the universe. The order is layer-major, then neuron index
// for neuron faults and (pre, post) index for synapse faults. ok is false
// when i lies outside [0, UniverseSize(arch, kind)).
func UniverseAt(arch snn.Arch, kind Kind, i int) (f Fault, ok bool) {
	if i < 0 {
		return Fault{}, false
	}
	if kind.IsNeuronFault() {
		// Neuron faults occur in all neurons except input neurons.
		for k := 1; k < arch.Layers(); k++ {
			if i < arch[k] {
				return NewNeuronFault(kind, snn.NeuronID{Layer: k, Index: i}), true
			}
			i -= arch[k]
		}
		return Fault{}, false
	}
	for b := 0; b < arch.Boundaries(); b++ {
		nOut := arch[b+1]
		if i < arch[b]*nOut {
			return NewSynapseFault(kind, snn.SynapseID{Boundary: b, Pre: i / nOut, Post: i % nOut}), true
		}
		i -= arch[b] * nOut
	}
	return Fault{}, false
}

// UniverseSize returns len(Universe(arch, kind)) without materialising it.
func UniverseSize(arch snn.Arch, kind Kind) int {
	if kind.IsNeuronFault() {
		return arch.HiddenAndOutputNeurons()
	}
	return arch.Synapses()
}
