package fault

import (
	"math"
	"testing"

	"neurotest/internal/snn"
)

func TestKindClassification(t *testing.T) {
	for _, k := range NeuronKinds() {
		if !k.IsNeuronFault() || k.IsSynapseFault() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range []Kind{SASF, SWF} {
		if !k.IsSynapseFault() || k.IsNeuronFault() {
			t.Errorf("%v misclassified", k)
		}
	}
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() = %v", Kinds())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{NASF: "NASF", ESF: "ESF", HSF: "HSF", SWF: "SWF", SASF: "SASF"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string: %q", Kind(99).String())
	}
}

func TestPaperValues(t *testing.T) {
	v := PaperValues(0.5)
	if v.ESFTheta != 0.05 || v.HSFTheta != 0.95 || v.SWFOmega != 1.0 {
		t.Errorf("PaperValues(0.5) = %+v", v)
	}
	if err := v.Validate(0.5); err != nil {
		t.Errorf("paper values invalid: %v", err)
	}
	if err := (Values{ESFTheta: 0.6, HSFTheta: 0.9}).Validate(0.5); err == nil {
		t.Errorf("ESF θ̂ above θ accepted")
	}
	if err := (Values{ESFTheta: 0.1, HSFTheta: 0.4}).Validate(0.5); err == nil {
		t.Errorf("HSF θ̂ below θ accepted")
	}
	// A threshold or weight of ±Inf or NaN is no physical value: NaN passes
	// every comparison with θ, and the generator's tests cannot reach an
	// infinite threshold.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bad := range []Values{{ESFTheta: x, HSFTheta: 0.9}, {ESFTheta: 0.1, HSFTheta: x}, {ESFTheta: 0.1, HSFTheta: 0.9, SWFOmega: x}} {
			if err := bad.Validate(0.5); err == nil {
				t.Errorf("%+v accepted", bad)
			}
		}
	}
}

func TestUniverseSizes(t *testing.T) {
	arch := snn.Arch{576, 256, 32, 10}
	for _, k := range NeuronKinds() {
		if got := len(Universe(arch, k)); got != 298 {
			t.Errorf("%v universe = %d, paper says 298", k, got)
		}
		if got := UniverseSize(arch, k); got != 298 {
			t.Errorf("%v UniverseSize = %d", k, got)
		}
	}
	for _, k := range []Kind{SASF, SWF} {
		if got := len(Universe(arch, k)); got != 155968 {
			t.Errorf("%v universe = %d, paper says 155968", k, got)
		}
		if got := UniverseSize(arch, k); got != 155968 {
			t.Errorf("%v UniverseSize = %d", k, got)
		}
	}
}

func TestUniverseExcludesInputNeurons(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	for _, f := range Universe(arch, NASF) {
		if f.Neuron.Layer == 0 {
			t.Fatalf("input neuron %v in NASF universe", f.Neuron)
		}
	}
	if got := len(Universe(arch, NASF)); got != 5 {
		t.Errorf("universe size = %d, want 5", got)
	}
}

func TestUniverseDeterministicOrder(t *testing.T) {
	arch := snn.Arch{3, 2, 2}
	a := Universe(arch, SWF)
	b := Universe(arch, SWF)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("universe order not deterministic at %d", i)
		}
	}
	// First fault is boundary 0, pre 0, post 0.
	if a[0].Synapse != (snn.SynapseID{}) {
		t.Errorf("first synapse fault = %v", a[0].Synapse)
	}
}

// enumerate is the nested-loop enumeration Universe used before UniverseAt
// defined the order, kept as an independent reference for it.
func enumerate(arch snn.Arch, kind Kind) []Fault {
	var out []Fault
	if kind.IsNeuronFault() {
		for k := 1; k < arch.Layers(); k++ {
			for i := 0; i < arch[k]; i++ {
				out = append(out, NewNeuronFault(kind, snn.NeuronID{Layer: k, Index: i}))
			}
		}
		return out
	}
	for b := 0; b < arch.Boundaries(); b++ {
		for i := 0; i < arch[b]; i++ {
			for j := 0; j < arch[b+1]; j++ {
				out = append(out, NewSynapseFault(kind, snn.SynapseID{Boundary: b, Pre: i, Post: j}))
			}
		}
	}
	return out
}

func TestUniverseAt(t *testing.T) {
	for _, arch := range []snn.Arch{{3, 2, 2}, {6, 5, 4}, {10, 8, 6, 3}, {4, 1, 3}, {2, 7}} {
		for _, k := range Kinds() {
			u := Universe(arch, k)
			ref := enumerate(arch, k)
			if len(u) != len(ref) || len(u) != UniverseSize(arch, k) {
				t.Fatalf("%v %v: Universe has %d faults, reference %d, UniverseSize %d",
					arch, k, len(u), len(ref), UniverseSize(arch, k))
			}
			for i := range u {
				f, ok := UniverseAt(arch, k, i)
				if !ok || f != u[i] || u[i] != ref[i] {
					t.Fatalf("%v %v [%d]: UniverseAt = %v, %v; Universe %v; reference %v",
						arch, k, i, f, ok, u[i], ref[i])
				}
			}
			for _, i := range []int{-1, len(u), len(u) + 1} {
				if f, ok := UniverseAt(arch, k, i); ok || f != (Fault{}) {
					t.Errorf("%v %v: UniverseAt(%d) = %v, %v; want zero fault, false", arch, k, i, f, ok)
				}
			}
		}
	}
}

func TestConstructors(t *testing.T) {
	nf := NewNeuronFault(ESF, snn.NeuronID{Layer: 1, Index: 2})
	if nf.Kind != ESF || nf.Neuron.Index != 2 {
		t.Errorf("NewNeuronFault = %+v", nf)
	}
	sf := NewSynapseFault(SASF, snn.SynapseID{Boundary: 1, Pre: 2, Post: 3})
	if sf.Kind != SASF || sf.Synapse.Post != 3 {
		t.Errorf("NewSynapseFault = %+v", sf)
	}
	assertPanics(t, "neuron fault with synapse kind", func() {
		NewNeuronFault(SWF, snn.NeuronID{})
	})
	assertPanics(t, "synapse fault with neuron kind", func() {
		NewSynapseFault(NASF, snn.SynapseID{})
	})
}

func TestFaultString(t *testing.T) {
	nf := NewNeuronFault(HSF, snn.NeuronID{Layer: 1, Index: 0})
	if nf.String() != "HSF@n[2,1]" {
		t.Errorf("String = %q", nf.String())
	}
	sf := NewSynapseFault(SWF, snn.SynapseID{Boundary: 0, Pre: 1, Post: 2})
	if sf.String() != "SWF@w[1,2,3]" {
		t.Errorf("String = %q", sf.String())
	}
}

func TestModifiersMapping(t *testing.T) {
	v := PaperValues(0.5)
	n := snn.NeuronID{Layer: 1, Index: 3}
	s := snn.SynapseID{Boundary: 0, Pre: 1, Post: 2}

	m := NewNeuronFault(NASF, n).Modifiers(v)
	if !m.ForceSpike[n] {
		t.Errorf("NASF modifiers: %+v", m)
	}
	m = NewNeuronFault(ESF, n).Modifiers(v)
	if m.ThresholdOverride[n] != v.ESFTheta {
		t.Errorf("ESF modifiers: %+v", m)
	}
	m = NewNeuronFault(HSF, n).Modifiers(v)
	if m.ThresholdOverride[n] != v.HSFTheta {
		t.Errorf("HSF modifiers: %+v", m)
	}
	m = NewSynapseFault(SWF, s).Modifiers(v)
	if m.StuckWeight[s] != v.SWFOmega {
		t.Errorf("SWF modifiers: %+v", m)
	}
	m = NewSynapseFault(SASF, s).Modifiers(v)
	if !m.AlwaysOnSynapse[s] {
		t.Errorf("SASF modifiers: %+v", m)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestIn moves each coordinate of a fault site through -1, 0, its last
// index and one past it, the other coordinates at 0, for every kind; the
// neuron index runs over the input layer, whose neurons are sites.
func TestIn(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	type coord struct {
		name string
		last int
		set  func(f *Fault, v int)
	}
	neuron := []coord{
		{"layer", len(arch) - 1, func(f *Fault, v int) { f.Neuron.Layer = v }},
		{"index", arch[0] - 1, func(f *Fault, v int) { f.Neuron.Index = v }},
	}
	synapse := []coord{
		{"boundary", arch.Boundaries() - 1, func(f *Fault, v int) { f.Synapse.Boundary = v }},
		{"pre", arch[0] - 1, func(f *Fault, v int) { f.Synapse.Pre = v }},
		{"post", arch[1] - 1, func(f *Fault, v int) { f.Synapse.Post = v }},
	}
	for _, k := range Kinds() {
		coords := neuron
		if k.IsSynapseFault() {
			coords = synapse
		}
		for _, c := range coords {
			for _, v := range []int{-1, 0, c.last, c.last + 1} {
				f := Fault{Kind: k}
				c.set(&f, v)
				if want := v >= 0 && v <= c.last; f.In(arch) != want {
					t.Errorf("%v (%s %d): In(%v) = %v, want %v", f, c.name, v, arch, !want, want)
				}
			}
		}
	}
	for _, k := range []Kind{Kind(-1), Kind(5)} {
		if f := (Fault{Kind: k}); f.In(arch) {
			t.Errorf("unknown kind %v: In(%v) = true", f, arch)
		}
	}
}
