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
	xs := make([]float64, 0, 10000)
	for _, w := range out.W[0] {
		xs = append(xs, w)
	}
	if mean := stats.Mean(xs); math.Abs(mean-1) > 0.01 {
		t.Errorf("programmed mean = %g, want ≈ 1 (unbiased)", mean)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-0.2) > 0.01 {
		t.Errorf("programmed stddev = %g, want ≈ 0.2", sd)
	}
}

func TestErrorNoClampBias(t *testing.T) {
	// The regression that produced phantom overkill: weights saturated at
	// ±ωmax must stay zero-mean after variation (no clamping).
	net := snn.New(snn.Arch{100, 100}, snn.DefaultParams())
	net.Fill(-10) // ωmin
	out := applied(Model{Sigma: 0.5}, net, 10)
	xs := make([]float64, 0, 10000)
	below := 0
	for _, w := range out.W[0] {
		xs = append(xs, w)
		if w < -10 {
			below++
		}
	}
	if mean := stats.Mean(xs); math.Abs(mean+10) > 0.02 {
		t.Errorf("saturated weights biased: mean = %g, want ≈ -10", mean)
	}
	if below == 0 {
		t.Errorf("no weights below ωmin: clamping crept back in")
	}
}

// TestApplyLeavesSource pins that programming only reads the source
// configuration, through both ApplyTo and ApplyInto, and that ApplyInto
// overwrites every weight of its destination.
func TestApplyLeavesSource(t *testing.T) {
	net := snn.New(snn.Arch{3, 2}, snn.DefaultParams())
	net.Fill(1)
	e := Model{Sigma: 0.1}.SampleError(net.Arch, stats.NewRNG(3))
	c := e.ApplyTo(net)
	dst := snn.New(net.Arch, snn.Params{Theta: 1, Leak: 0.5, WMax: 4})
	dst.Fill(7)
	e.ApplyInto(dst, net)
	for _, w := range net.W[0] {
		if w != 1 {
			t.Fatalf("source mutated: %g", w)
		}
	}
	changed := false
	for i, w := range c.W[0] {
		if w != net.W[0][i] {
			changed = true
		}
		if math.Float64bits(dst.W[0][i]) != math.Float64bits(w) {
			t.Errorf("ApplyInto weight %d = %g, ApplyTo %g", i, dst.W[0][i], w)
		}
	}
	if !changed {
		t.Errorf("programmed copy shows no variation")
	}
	if dst.Params != net.Params {
		t.Errorf("ApplyInto kept destination params %+v, want %+v", dst.Params, net.Params)
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

// TestSampleErrorDeterministicQuick pins that a seed fixes the tensor and
// that programming in place (ApplyInto, into a reused network) produces the
// same weights, bit for bit, as programming a fresh copy (ApplyTo).
func TestSampleErrorDeterministicQuick(t *testing.T) {
	arch := snn.Arch{3, 4, 2}
	scratch := snn.New(arch, snn.DefaultParams())
	f := func(seed uint64, fill float64) bool {
		m := Model{Sigma: 0.3}
		net := snn.New(arch, snn.DefaultParams())
		net.Fill(fill)
		a := applied(m, net, seed)
		b := applied(m, net, seed)
		m.SampleError(arch, stats.NewRNG(seed)).ApplyInto(scratch, net)
		for k := range a.W {
			for i := range a.W[k] {
				bits := math.Float64bits(a.W[k][i])
				if math.Float64bits(b.W[k][i]) != bits || math.Float64bits(scratch.W[k][i]) != bits {
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
