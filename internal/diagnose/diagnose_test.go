package diagnose

import (
	"context"
	"slices"
	"strings"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
)

func buildSuite(t *testing.T, arch snn.Arch) (*core.Generator, *pattern.TestSet) {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return g, merged
}

func fullUniverse(arch snn.Arch) []fault.Fault {
	var out []fault.Fault
	for _, k := range fault.Kinds() {
		out = append(out, fault.Universe(arch, k)...)
	}
	return out
}

// buildOn is BuildOn under a background context, failing t on an error.
func buildOn(t *testing.T, ate *tester.ATE, values fault.Values, universe []fault.Fault) *Dictionary {
	t.Helper()
	d, err := BuildOn(context.Background(), ate, values, universe)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBuildOnRejectsFaultOutsideChip: a synapse fault whose pre neuron
// lies outside the architecture, which the packed kernel would index out
// of range, fails the build with an error naming it before any Golden is
// built, and Build, the wrapper, panics with that error.
func TestBuildOnRejectsFaultOutsideChip(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	g, merged := buildSuite(t, arch)
	bogus := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 98, Post: 0})
	universe := append(fault.Universe(arch, fault.NASF), bogus)
	before := faultsim.Snapshot().GoldenBuilds
	d, err := BuildOn(context.Background(), tester.New(merged, nil), g.Options().Values, universe)
	if d != nil || err == nil || !strings.Contains(err.Error(), bogus.String()) {
		t.Errorf("dictionary %v, error %v; want a rejection naming %v", d, err, bogus)
	}
	if n := faultsim.Snapshot().GoldenBuilds - before; n != 0 {
		t.Errorf("%d Goldens built before the rejection", n)
	}
	assertPanics(t, "Build over a fault outside the chip", func() { Build(merged, g.Options().Values, nil, universe) })
}

func TestSignatureBasics(t *testing.T) {
	s := NewSignature(70) // spans two words
	if s.AnyFail() {
		t.Errorf("fresh signature fails")
	}
	s.SetFail(0)
	s.SetFail(69)
	if !s.Fails(0) || !s.Fails(69) || s.Fails(35) {
		t.Errorf("bit handling wrong: %s", s)
	}
	if s.CountFails() != 2 {
		t.Errorf("CountFails = %d", s.CountFails())
	}
	str := s.String()
	if len(str) != 70 || str[0] != '1' || str[69] != '1' || strings.Count(str, "1") != 2 {
		t.Errorf("String = %q", str)
	}
	other := NewSignature(70)
	other.SetFail(0)
	other.SetFail(69)
	if s.Key() != other.Key() {
		t.Errorf("equal signatures, different keys")
	}
	assertPanics(t, "out of range", func() { s.SetFail(70) })
}

func TestDictionaryDiagnosesInjectedFaults(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	universe := fullUniverse(arch)
	ate := tester.New(merged, nil)
	dict := buildOn(t, ate, g.Options().Values, universe)

	if dict.Detected() != dict.Total() {
		t.Fatalf("dictionary: %d/%d detected; proposed sets guarantee 100%%", dict.Detected(), dict.Total())
	}

	// Inject every 7th fault as a chip defect and diagnose it on the ATE
	// the dictionary was built on: the candidate list must contain the
	// injected fault.
	for i := 0; i < len(universe); i += 7 {
		f := universe[i]
		sig := ObserveChip(ate, f.Modifiers(g.Options().Values))
		if !sig.AnyFail() {
			t.Fatalf("%v produced a passing chip", f)
		}
		candidates := dict.Lookup(sig)
		found := false
		for _, c := range candidates {
			if c == f {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v not among %d candidates for its own signature", f, len(candidates))
		}
	}
}

func TestDictionaryResolution(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	universe := fullUniverse(arch)
	dict := buildOn(t, tester.New(merged, nil), g.Options().Values, universe)
	r := dict.Resolution()
	if r.Classes < 2 {
		t.Errorf("only %d failing classes", r.Classes)
	}
	if r.MaxClassSize <= 0 || r.MeanClassSize <= 0 {
		t.Errorf("degenerate resolution: %+v", r)
	}
	if r.MeanClassSize > float64(r.MaxClassSize) {
		t.Errorf("mean %g exceeds max %d", r.MeanClassSize, r.MaxClassSize)
	}
	if got := dict.Classes(); got < r.Classes {
		t.Errorf("Classes() = %d < failing classes %d", got, r.Classes)
	}
	if !strings.Contains(dict.String(), "classes") {
		t.Errorf("summary: %q", dict.String())
	}
}

func TestLookupUnknownSignature(t *testing.T) {
	arch := snn.Arch{6, 4, 3}
	g, merged := buildSuite(t, arch)
	dict := buildOn(t, tester.New(merged, nil), g.Options().Values, fault.Universe(arch, fault.NASF))
	// Every NASF fails the always-spike item (item 0 of the merged set), so
	// a signature passing item 0 but failing the last item is unmodelled.
	weird := NewSignature(len(merged.Items))
	weird.SetFail(len(merged.Items) - 1)
	if got := dict.Lookup(weird); got != nil {
		t.Errorf("unmodelled signature returned %v", got)
	}
}

func TestObserveChipGoodDie(t *testing.T) {
	arch := snn.Arch{6, 4, 3}
	_, merged := buildSuite(t, arch)
	sig := ObserveChip(tester.New(merged, nil), nil)
	if sig.AnyFail() {
		t.Errorf("good die failed items: %s", sig)
	}
}

func TestSortFaults(t *testing.T) {
	fs := []fault.Fault{
		fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 1, Pre: 0, Post: 0}),
		fault.NewNeuronFault(fault.HSF, snn.NeuronID{Layer: 2, Index: 1}),
		fault.NewNeuronFault(fault.HSF, snn.NeuronID{Layer: 1, Index: 3}),
		fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 2, Post: 1}),
		fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0}),
	}
	SortFaults(fs)
	if fs[0].Kind != fault.NASF {
		t.Errorf("NASF not first: %v", fs)
	}
	if fs[1].Neuron.Layer != 1 || fs[2].Neuron.Layer != 2 {
		t.Errorf("HSF order wrong: %v", fs)
	}
	if fs[3].Synapse.Boundary != 0 || fs[4].Synapse.Boundary != 1 {
		t.Errorf("SWF order wrong: %v", fs)
	}
}

// TestSignatureDistinguishesLayers checks the headline diagnosability
// property of the O(L) sets: faults in different layers fail different
// items, so the dictionary always localises the failing layer.
func TestSignatureDistinguishesLayers(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	vals := g.Options().Values
	ate := tester.New(merged, nil)
	sigOf := func(f fault.Fault) string {
		return ObserveChip(ate, f.Modifiers(vals)).Key()
	}
	esfL1 := fault.NewNeuronFault(fault.ESF, snn.NeuronID{Layer: 1, Index: 0})
	esfL2 := fault.NewNeuronFault(fault.ESF, snn.NeuronID{Layer: 2, Index: 0})
	if sigOf(esfL1) == sigOf(esfL2) {
		t.Errorf("ESF faults in different layers share a signature")
	}
	swfB0 := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 0, Post: 0})
	swfB1 := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 1, Pre: 0, Post: 0})
	if sigOf(swfB0) == sigOf(swfB1) {
		t.Errorf("SWF faults at different boundaries share a signature")
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

// TestLookupReturnsSortFaultsOrder is the repair-determinism regression:
// candidate slices must come back in SortFaults order no matter how the
// universe was ordered at Build time (plans iterate candidates directly).
func TestLookupReturnsSortFaultsOrder(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	universe := fullUniverse(arch)
	// Deterministically scramble the universe before building.
	shuffled := make([]fault.Fault, len(universe))
	copy(shuffled, universe)
	for i := range shuffled {
		j := (i*2654435761 + 17) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	ate := tester.New(merged, nil)
	dict := buildOn(t, ate, g.Options().Values, shuffled)
	checked := 0
	for _, f := range universe {
		sig := ObserveChip(ate, f.Modifiers(g.Options().Values))
		got := dict.Lookup(sig)
		if len(got) < 2 {
			continue
		}
		checked++
		want := make([]fault.Fault, len(got))
		copy(want, got)
		SortFaults(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Lookup(%v) class not in SortFaults order: %v", f, got)
			}
		}
	}
	if checked == 0 {
		t.Skip("no multi-fault classes at this size; ordering vacuous")
	}
}

func TestCandidatesCoverInjectedCluster(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	universe := fullUniverse(arch)
	ate := tester.New(merged, nil)
	dict := buildOn(t, ate, g.Options().Values, universe)

	f1 := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 2})
	f2 := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 1, Pre: 3, Post: 1})
	cluster := snn.MergeModifiers(f1.Modifiers(g.Options().Values), f2.Modifiers(g.Options().Values))
	sig := ObserveChip(ate, cluster)

	cands := dict.Candidates(sig)
	has := func(f fault.Fault) bool {
		for _, c := range cands {
			if c == f {
				return true
			}
		}
		return false
	}
	if !has(f1) || !has(f2) {
		t.Fatalf("candidates %v miss injected cluster members %v, %v", cands, f1, f2)
	}
	sorted := make([]fault.Fault, len(cands))
	copy(sorted, cands)
	SortFaults(sorted)
	for i := range cands {
		if cands[i] != sorted[i] {
			t.Fatalf("Candidates not in SortFaults order: %v", cands)
		}
	}
	// An all-pass observation is consistent with no failing fault.
	if got := dict.Candidates(NewSignature(len(merged.Items))); len(got) != 0 {
		t.Errorf("all-pass signature returned %d candidates", len(got))
	}
}

func TestSubsetOfAndFromBytes(t *testing.T) {
	a := NewSignature(70)
	a.SetFail(3)
	a.SetFail(69)
	b := NewSignature(70)
	b.SetFail(3)
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Errorf("subset relation wrong")
	}
	if !a.SubsetOf(a) {
		t.Errorf("signature not subset of itself")
	}
	if a.SubsetOf(NewSignature(10)) {
		t.Errorf("length-mismatched signatures must not be subsets")
	}
	empty := NewSignature(70)
	if !empty.SubsetOf(a) {
		t.Errorf("empty signature must be subset of everything")
	}
}

// TestResolutionEdgeCases pins Resolution on the three boundary shapes:
// an empty dictionary, a universe collapsed into one class, and a fully
// distinguished universe.
func TestResolutionEdgeCases(t *testing.T) {
	_, merged := buildSuite(t, snn.Arch{8, 6, 4})
	n := len(merged.Items)

	empty := Build(merged, fault.PaperValues(snn.DefaultParams().Theta), nil, nil)
	if r := empty.Resolution(); r != (Resolution{}) {
		t.Errorf("empty dictionary resolution = %+v", r)
	}
	if empty.Total() != 0 || empty.Detected() != 0 || empty.Classes() != 0 {
		t.Errorf("empty dictionary summary: %s", empty)
	}

	// Hand-built class maps (same package): every fault in one failing class.
	faults := fault.Universe(snn.Arch{8, 6, 4}, fault.NASF)
	one := NewSignature(n)
	one.SetFail(0)
	all := &Dictionary{
		ts:       merged,
		entries:  map[string][]fault.Fault{one.Key(): faults},
		sigs:     map[string]Signature{one.Key(): one},
		detected: len(faults),
		total:    len(faults),
	}
	r := all.Resolution()
	if r.Classes != 1 || r.MaxClassSize != len(faults) || r.UniquelyDiagnosed != 0 {
		t.Errorf("one-class resolution = %+v", r)
	}
	if r.MeanClassSize != float64(len(faults)) {
		t.Errorf("one-class mean = %v, want %d", r.MeanClassSize, len(faults))
	}

	// Fully distinguished: one fault per class.
	entries := make(map[string][]fault.Fault)
	sigs := make(map[string]Signature)
	for i, f := range faults {
		s := NewSignature(n)
		s.SetFail(i % n)
		s.SetFail((i / n) + 1)
		entries[s.Key()] = []fault.Fault{f}
		sigs[s.Key()] = s
	}
	if len(entries) != len(faults) {
		t.Fatalf("crafted signatures collide: %d classes for %d faults", len(entries), len(faults))
	}
	distinct := &Dictionary{ts: merged, entries: entries, sigs: sigs, detected: len(faults), total: len(faults)}
	r = distinct.Resolution()
	if r.Classes != len(faults) || r.MaxClassSize != 1 || r.UniquelyDiagnosed != len(faults) || r.MeanClassSize != 1 {
		t.Errorf("fully-distinguished resolution = %+v", r)
	}
}

// oracleObserve is ObserveChip as it ran before diagnosis observed through
// the ATE it was given: a fresh ATE for the golden responses, and one fresh
// simulator per configuration, quantized on its own.
func oracleObserve(ts *pattern.TestSet, scheme *quant.Scheme, mods *snn.Modifiers) Signature {
	ate := tester.New(ts, scheme)
	sig := NewSignature(len(ts.Items))
	sims := make(map[int]*snn.Simulator)
	for i, it := range ts.Items {
		sim, ok := sims[it.ConfigIndex]
		if !ok {
			cfg := ts.Configs[it.ConfigIndex]
			if scheme != nil {
				cfg, _ = scheme.QuantizedClone(cfg)
			}
			sim = snn.NewSimulator(cfg)
			sims[it.ConfigIndex] = sim
		}
		if res := sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods); !res.Equal(ate.Golden(i)) {
			sig.SetFail(i)
		}
	}
	return sig
}

// TestObserveChipMatchesOracle: observing a die through a shared ATE gives
// the signature the fresh-ATE oracle gives, on sampled single faults and
// clusters of two and three, ideal and under a 4-bit per-boundary scheme
// (which hides some HSF faults, so the scheme shows in the signatures),
// and on a tolerance-1 clone of the ATE, whose observation stays exact.
func TestObserveChipMatchesOracle(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := buildSuite(t, arch)
	values := g.Options().Values
	s4, err := quant.NewScheme(4, quant.PerBoundary)
	if err != nil {
		t.Fatal(err)
	}
	const dies = 45
	sample := tester.SampleFaults(arch, fault.Kinds(), 2*dies, 13)
	keys := map[*quant.Scheme][]string{}
	loosePassed := 0
	for _, scheme := range []*quant.Scheme{nil, &s4} {
		ate := tester.New(merged, scheme)
		loose, err := ate.CloneWithTolerance(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dies; i++ {
			cluster, mods := tester.ClusterDefect(sample, values, i, 1+i%3)
			want := oracleObserve(merged, scheme, mods)
			for _, a := range []*tester.ATE{ate, loose} {
				if got := ObserveChip(a, mods); got.Key() != want.Key() {
					t.Fatalf("%v %v: observed %s, oracle %s", scheme, cluster, got, want)
				}
			}
			if want.AnyFail() && loose.RunChip(mods, variation.None(), nil).Passed {
				loosePassed++
			}
			keys[scheme] = append(keys[scheme], want.Key())
		}
	}
	if loosePassed == 0 {
		t.Error("no failing die passed the tolerance-1 ATE; the exactness check is vacuous")
	}
	if slices.Equal(keys[nil], keys[&s4]) {
		t.Error("the 4-bit scheme changed no signature; the scheme check is vacuous")
	}
}
