package variation

import (
	"math"
	"testing"
	"testing/quick"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

func TestModelBasics(t *testing.T) {
	if !None().Zero() {
		t.Errorf("None not zero")
	}
	m := OfTheta(0.10, 0.5)
	if m.Sigma != 0.05 {
		t.Errorf("OfTheta sigma = %g", m.Sigma)
	}
	if m.Zero() {
		t.Errorf("10%%θ model is zero")
	}
	if None().String() != "no variation" {
		t.Errorf("None string %q", None().String())
	}
	if m.String() != "σ=0.05" {
		t.Errorf("model string %q", m.String())
	}
}

// applied samples one tensor for net's architecture and returns net
// programmed through it.
func applied(m Model, net *snn.Network, seed uint64) *snn.Network {
	return m.SampleError(net.Arch, stats.NewRNG(seed)).ApplyTo(net)
}

func TestSampleErrorMoments(t *testing.T) {
	net := snn.New(snn.Arch{100, 100}, snn.DefaultParams())
	net.Fill(1)
	out := applied(Model{Sigma: 0.2}, net, 9)
	var acc stats.Welford
	for _, w := range out.W[0] {
		acc.Add(w)
	}
	if mean := acc.Mean(); math.Abs(mean-1) > 0.01 {
		t.Errorf("programmed mean = %g, want ≈ 1 (unbiased)", mean)
	}
	if sd := acc.StdDev(); math.Abs(sd-0.2) > 0.01 {
		t.Errorf("programmed stddev = %g, want ≈ 0.2", sd)
	}
}

func TestErrorNoClampBias(t *testing.T) {
	// The regression that produced phantom overkill: weights saturated at
	// ±ωmax must stay zero-mean after variation (no clamping).
	net := snn.New(snn.Arch{100, 100}, snn.DefaultParams())
	net.Fill(-10) // ωmin
	out := applied(Model{Sigma: 0.5}, net, 10)
	var acc stats.Welford
	below := 0
	for _, w := range out.W[0] {
		acc.Add(w)
		if w < -10 {
			below++
		}
	}
	if mean := acc.Mean(); math.Abs(mean+10) > 0.02 {
		t.Errorf("saturated weights biased: mean = %g, want ≈ -10", mean)
	}
	if below == 0 {
		t.Errorf("no weights below ωmin: clamping crept back in")
	}
}

// TestApplyLeavesSource pins that programming only reads the source
// configuration and the tensor: ApplyTo writes a fresh network carrying
// the source's parameters, and a simulator bound to the source through the
// tensor (the tester's view of a die) runs exactly like that network while
// leaving both operands as they were.
func TestApplyLeavesSource(t *testing.T) {
	net := snn.New(snn.Arch{3, 2}, snn.Params{Theta: 1, Leak: 0.5, WMax: 4})
	net.Fill(1)
	e := Model{Sigma: 0.1}.SampleError(net.Arch, stats.NewRNG(3))
	tensor := append([]float64(nil), e.E[0]...)
	c := e.ApplyTo(net)
	if c.Params != net.Params {
		t.Errorf("ApplyTo params %+v, want %+v", c.Params, net.Params)
	}
	changed := false
	for i, w := range c.W[0] {
		if w != net.W[0][i] {
			changed = true
		}
	}
	if !changed {
		t.Errorf("programmed copy shows no variation")
	}
	view := snn.NewSimulator(net)
	if err := view.Bind(net, e.E); err != nil {
		t.Fatal(err)
	}
	p := snn.OnesPattern(3)
	for _, T := range []int{1, 4, 16} {
		if got, want := view.Run(p, T, snn.ApplyHold, nil), snn.NewSimulator(c).Run(p, T, snn.ApplyHold, nil); !got.Equal(want) {
			t.Errorf("T=%d: view %v, ApplyTo copy %v", T, got, want)
		}
	}
	for i, w := range net.W[0] {
		if w != 1 {
			t.Fatalf("source mutated: weight %d = %g", i, w)
		}
		if math.Float64bits(e.E[0][i]) != math.Float64bits(tensor[i]) {
			t.Fatalf("tensor mutated: E %d = %g, was %g", i, e.E[0][i], tensor[i])
		}
	}
}

func TestErrorTensor(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	m := Model{Sigma: 0.1}
	e := m.SampleError(arch, stats.NewRNG(4))
	if e == nil {
		t.Fatalf("nil tensor for non-zero model")
	}
	if len(e.E) != arch.Boundaries() {
		t.Fatalf("tensor has %d boundaries", len(e.E))
	}
	net := snn.New(arch, snn.DefaultParams())
	net.Fill(5)
	out := e.ApplyTo(net)
	if out == net {
		t.Fatalf("ApplyTo returned original for non-nil tensor")
	}
	for b := range out.W {
		for i, w := range out.W[b] {
			want := 5 + e.E[b][i]
			if math.Abs(w-want) > 1e-12 {
				t.Errorf("weight = %g, want %g", w, want)
			}
		}
	}
	// Same tensor applied to two configurations shifts both identically.
	net2 := snn.New(arch, snn.DefaultParams())
	net2.Fill(-1)
	out2 := e.ApplyTo(net2)
	for b := range out.W {
		for i := range out.W[b] {
			d1 := out.W[b][i] - 5
			d2 := out2.W[b][i] + 1
			if math.Abs(d1-d2) > 1e-12 {
				t.Errorf("tensor not frozen across configs: %g vs %g", d1, d2)
			}
		}
	}
}

func TestPerturbZeroIsNoop(t *testing.T) {
	net := snn.New(snn.Arch{3, 2}, snn.DefaultParams())
	net.Fill(2)
	out := None().SampleError(net.Arch, nil).ApplyTo(net) // nil RNG must be fine for zero model
	for _, w := range out.W[0] {
		if w != 2 {
			t.Errorf("zero model changed weight to %g", w)
		}
	}
}

func TestErrorTensorNil(t *testing.T) {
	if None().SampleError(snn.Arch{2, 2}, nil) != nil {
		t.Errorf("zero model produced a tensor")
	}
	var e *ErrorTensor
	net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
	if e.ApplyTo(net) != net {
		t.Errorf("nil tensor did not pass through")
	}
}

func TestNuAndNegligible(t *testing.T) {
	m := OfTheta(0.10, 0.5) // σ = 0.05, ωmax = 10, c = 3 → ν = 1111
	if got := m.Nu(10, 3); got != 1111 {
		t.Errorf("Nu = %d, want 1111", got)
	}
	// 1111 > 576: the paper's models see 10 % θ as negligible.
	if !m.Negligible(snn.Arch{576, 256, 32, 10}, 10, 3) {
		t.Errorf("10%%θ not negligible for the 4-layer model")
	}
	// A much wider layer flips it.
	if m.Negligible(snn.Arch{2000, 10}, 10, 3) {
		t.Errorf("ν=1111 reported negligible for width 2000")
	}
	if !None().Negligible(snn.Arch{2000, 10}, 10, 3) {
		t.Errorf("zero variation not negligible")
	}
}

// TestSampleErrorDeterministicQuick pins that a seed fixes the tensor bit
// for bit, and that a simulator reading a configuration through it (the
// tester's die) records the same trace, bit for bit, as one running the
// ApplyTo copy.
func TestSampleErrorDeterministicQuick(t *testing.T) {
	arch := snn.Arch{3, 4, 2}
	view := snn.NewSimulator(snn.New(arch, snn.DefaultParams()))
	p := snn.OnesPattern(arch.Inputs())
	f := func(seed uint64, fill float64) bool {
		m := Model{Sigma: 0.3}
		net := snn.New(arch, snn.DefaultParams())
		net.Fill(math.Mod(fill, 2))
		e := m.SampleError(arch, stats.NewRNG(seed))
		a := e.ApplyTo(net)
		b := applied(m, net, seed)
		for k := range a.W {
			for i := range a.W[k] {
				if math.Float64bits(b.W[k][i]) != math.Float64bits(a.W[k][i]) {
					return false
				}
			}
		}
		if err := view.Bind(net, e.E); err != nil {
			return false
		}
		_, got := view.RunTrace(p, 8, snn.ApplyHold, nil)
		_, want := snn.NewSimulator(a).RunTrace(p, 8, snn.ApplyHold, nil)
		for k := 1; k < arch.Layers(); k++ {
			for i := range want.Y[k] {
				if math.Float64bits(got.Y[k][i]) != math.Float64bits(want.Y[k][i]) ||
					math.Float64bits(got.V[k][i]) != math.Float64bits(want.V[k][i]) {
					return false
				}
			}
			for j := range want.X[k] {
				if got.X[k][j] != want.X[k][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// perVariateSampleError is SampleError as it was before the row fill: one
// σ·NormFloat64 draw per synapse, row by row. SampleError must draw the
// same tensor and leave the generator where this loop leaves it.
func perVariateSampleError(m Model, arch snn.Arch, rng *stats.RNG) [][]float64 {
	e := make([][]float64, arch.Boundaries())
	for b := range e {
		e[b] = make([]float64, arch[b]*arch[b+1])
		for i := range e[b] {
			e[b][i] = m.Sigma * rng.NormFloat64()
		}
	}
	return e
}

// TestSampleErrorMatchesPerVariate pins the sampler's stream: on
// odd-width architectures and on the paper's 576-256-32-10 model,
// SampleError matches the per-variate loop bit for bit and leaves the
// generator in the same state (next NormFloat64 and Uint64 agree).
func TestSampleErrorMatchesPerVariate(t *testing.T) {
	m := OfTheta(0.10, 0.5)
	for _, arch := range []snn.Arch{{3, 5, 7}, {1, 1}, {1, 3, 1}, {2, 3}, {576, 256, 32, 10}} {
		got, want := stats.NewRNG(271828), stats.NewRNG(271828)
		e := m.SampleError(arch, got)
		ref := perVariateSampleError(m, arch, want)
		sameTensor(t, arch.String(), e, ref)
		if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: next NormFloat64 %v, per-variate %v", arch, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%v: next Uint64 %#x, per-variate %#x", arch, g, w)
		}
	}
}

// sameTensor fails the test unless e has ref's shape and bits.
func sameTensor(t *testing.T, name string, e *ErrorTensor, ref [][]float64) {
	t.Helper()
	if len(e.E) != len(ref) {
		t.Fatalf("%s: %d boundaries, want %d", name, len(e.E), len(ref))
	}
	for b := range ref {
		if len(e.E[b]) != len(ref[b]) {
			t.Fatalf("%s: boundary %d has %d errors, want %d", name, b, len(e.E[b]), len(ref[b]))
		}
		for i, w := range ref[b] {
			if math.Float64bits(e.E[b][i]) != math.Float64bits(w) {
				t.Fatalf("%s: E[%d][%d] = %v, want %v", name, b, i, e.E[b][i], w)
			}
		}
	}
}

// TestSampleIntoReusesRows pins the reuse a tester pool slot relies on:
// sampled die after die into one tensor of the right shape, SampleInto
// fills that tensor's own rows with SampleError's tensor, bit for bit, and
// leaves the generator where SampleError leaves it.
func TestSampleIntoReusesRows(t *testing.T) {
	m := OfTheta(0.10, 0.5)
	for _, arch := range []snn.Arch{{3, 5, 7}, {1, 1}, {576, 256, 32, 10}} {
		slot := m.SampleError(arch, stats.NewRNG(1))
		rows := make([]*float64, len(slot.E))
		for b, row := range slot.E {
			rows[b] = &row[0]
		}
		for seed := uint64(2); seed < 5; seed++ {
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			e := m.SampleInto(slot, arch, got)
			if e != slot {
				t.Fatalf("%v seed %d: a tensor of the right shape was replaced", arch, seed)
			}
			for b, row := range e.E {
				if &row[0] != rows[b] {
					t.Fatalf("%v seed %d: row %d was reallocated", arch, seed, b)
				}
			}
			sameTensor(t, arch.String(), e, m.SampleError(arch, want).E)
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%v seed %d: next Uint64 %#x, SampleError's %#x", arch, seed, g, w)
			}
		}
	}
}

// TestSampleIntoReplacesMisshapen: a tensor of another shape — nil, too
// few or too many boundaries, a row too short or too long — is never
// written: SampleInto returns a fresh tensor, SampleError's bit for bit,
// and leaves the misshapen one as it was. A zero model returns nil and
// leaves any tensor alone.
func TestSampleIntoReplacesMisshapen(t *testing.T) {
	arch := snn.Arch{3, 4, 2}
	m := Model{Sigma: 0.3}
	rows := func(lens ...int) *ErrorTensor {
		e := &ErrorTensor{E: make([][]float64, len(lens))}
		for b, n := range lens {
			e.E[b] = make([]float64, n)
		}
		return e
	}
	for _, c := range []struct {
		name string
		e    *ErrorTensor
	}{
		{"nil", nil},
		{"no boundaries", &ErrorTensor{}},
		{"one boundary", rows(12)},
		{"three boundaries", rows(12, 8, 4)},
		{"short row", rows(12, 7)},
		{"long row", rows(13, 8)},
		{"rows swapped", rows(8, 12)},
	} {
		var lens []int
		if c.e != nil {
			for _, row := range c.e.E {
				lens = append(lens, len(row))
			}
		}
		got := m.SampleInto(c.e, arch, stats.NewRNG(5))
		if got == c.e {
			t.Fatalf("%s: misshapen tensor reused", c.name)
		}
		sameTensor(t, c.name, got, m.SampleError(arch, stats.NewRNG(5)).E)
		if c.e == nil {
			continue
		}
		if len(c.e.E) != len(lens) {
			t.Fatalf("%s: misshapen tensor now has %d boundaries, had %d", c.name, len(c.e.E), len(lens))
		}
		for b, row := range c.e.E {
			if len(row) != lens[b] {
				t.Fatalf("%s: row %d now has %d errors, had %d", c.name, b, len(row), lens[b])
			}
			for i, x := range row {
				if x != 0 {
					t.Fatalf("%s: misshapen tensor written at [%d][%d] = %v", c.name, b, i, x)
				}
			}
		}
		if None().SampleInto(c.e, arch, nil) != nil {
			t.Fatalf("%s: zero model returned a tensor", c.name)
		}
	}
}
