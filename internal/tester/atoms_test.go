package tester

import (
	"math"
	"slices"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// atomFixture is the 24-16-8-4 program the die tests share, and its dies'
// defects: good dies, NASF on every input neuron, SWF and SASF on a spread
// of boundary-0 synapses, ESF and HSF, and clusters of four of those,
// which read several boundary-0 synapses one after another.
func atomFixture(t *testing.T) (*ATE, []*snn.Modifiers, variation.Model) {
	t.Helper()
	arch := snn.Arch{24, 16, 8, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	var faults []fault.Fault
	for i := 0; i < arch[0]; i++ {
		faults = append(faults, fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 0, Index: i}))
	}
	for _, k := range []fault.Kind{fault.SWF, fault.SASF} {
		for i, f := range fault.Universe(arch, k) {
			if f.Synapse.Boundary == 0 && i%8 == 0 {
				faults = append(faults, f)
			}
		}
	}
	faults = append(faults, fault.Universe(arch, fault.ESF)...)
	faults = append(faults, fault.Universe(arch, fault.HSF)...)
	dies := make([]*snn.Modifiers, 24)
	for _, f := range faults {
		dies = append(dies, f.Modifiers(values))
	}
	for c := 0; c < 12; c++ {
		_, m := ClusterDefect(faults[arch[0]-6:], values, c, 4)
		dies = append(dies, m)
	}
	return New(merged, nil), dies, variation.OfTheta(0.10, g.Options().Params.Theta)
}

// TestDieDrawsMatchOracle: die after die on one reused die, reset draws
// the chip's atom sums, deeper tensor and boundary-0 reads exactly as the
// written-out oracleDraw does from the same generator, bit for bit; the
// reads cover every synapse out of a forced input neuron and each stuck
// or always-on boundary-0 synapse, in SynapseID order. A draw in map
// order, an unconditional draw, a remainder carried between chips or a
// dropped forced row fails it.
func TestDieDrawsMatchOracle(t *testing.T) {
	ate, dies, vary := atomFixture(t)
	d := ate.newDie()
	multi := 0
	for i, m := range dies {
		s := chipSeed(23, i)
		d.reset(vary, stats.NewRNG(s), m)
		want := oracleDraw(ate, vary, stats.NewRNG(s), m)
		for a := range want.atoms {
			if !slices.EqualFunc(d.vary.Atoms[a], want.atoms[a], sameFloat) {
				t.Fatalf("die %d: atom %d's sums differ from the oracle's", i, a)
			}
		}
		for b := range want.deep.E {
			if !slices.EqualFunc(d.vary.Deep.E[b], want.deep.E[b], sameFloat) {
				t.Fatalf("die %d: deep boundary %d differs from the oracle's", i, b+1)
			}
		}
		if (d.feed.Off == nil) != (want.rows == nil) {
			t.Fatalf("die %d: offset rows %v, oracle %v", i, d.feed.Off != nil, want.rows != nil)
		}
		rows := 0
		for k := range want.rows {
			if (d.feed.Off[k] == nil) != (want.rows[k] == nil) || !slices.EqualFunc(d.feed.Off[k], want.rows[k], sameFloat) {
				t.Fatalf("die %d: input neuron %d's row %v, oracle %v", i, k, d.feed.Off[k], want.rows[k])
			}
			if want.rows[k] != nil {
				rows++
			}
		}
		if rows > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("fixture broken: no die reads synapses of two input neurons")
	}
}

func sameFloat(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }

// TestDieLayer1SumMoments checks the law of a die's layer-1 sums over
// 3,000 good dies at σ = 10 % θ: group g's sum into neuron j has mean
// Σ_{i∈S_g} w_ij, the pattern's programmed weights, and groups a and b
// covary by |S_a ∩ S_b|σ² at one neuron and not at all across neurons —
// the per-synapse model's moments, which hold only if the atoms partition
// the inputs by the items that drive them. Each moment must lie within
// five standard errors. The ATEs are the plain program, one with a held
// twin after every item, and the program quantized to 8 bits.
func TestDieLayer1SumMoments(t *testing.T) {
	arch := snn.Arch{24, 16, 8, 4}
	g, merged := smallSuite(t, arch, core.NegligibleVariation())
	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	sigma2 := vary.Sigma * vary.Sigma
	const n = 3000
	for _, c := range []struct {
		name string
		ate  *ATE
	}{{"plain", New(merged, nil)}, {"held-twins", New(holdSuite(merged), nil)}, {"quantized-8bit", New(merged, &sch)}} {
		ate := c.ate
		l := ate.input.get()
		G, width := len(l.sums), arch[1]
		rep := make([]int, G) // an item of each group
		for i := len(ate.ts.Items) - 1; i >= 0; i-- {
			rep[l.group[i]] = i
		}
		driven := func(g int) []bool { return ate.ts.Items[rep[g]].Pattern }
		overlap := func(a, b int) float64 {
			k := 0
			for i, on := range driven(a) {
				if on && driven(b)[i] {
					k++
				}
			}
			return float64(k)
		}
		partial := 0
		for a := 0; a < G; a++ {
			for b := a + 1; b < G; b++ {
				if k := overlap(a, b); k > 0 && k < min(overlap(a, a), overlap(b, b)) {
					partial++
				}
			}
		}
		if partial == 0 {
			t.Fatalf("%s: fixture broken: no two groups' patterns overlap in part", c.name)
		}
		sum := make([][]float64, G)  // per group, per neuron
		prod := make([][]float64, G) // per pair of groups, neuron j with itself
		cross := make([]float64, G)  // per group, neuron 0 with neuron 1
		for k := range sum {
			sum[k] = make([]float64, width)
			prod[k] = make([]float64, G*width)
		}
		d := ate.newDie()
		ys := make([][]float64, G)
		for k := 0; k < n; k++ {
			d.reset(vary, stats.NewRNG(chipSeed(29, k)), nil)
			for a := range ys {
				ys[a] = slices.Clone(d.groupSum(a))
			}
			for a, y := range ys {
				cross[a] += y[0] * y[1]
				for j, v := range y {
					sum[a][j] += v
					for b := range ys {
						prod[a][b*width+j] += v * ys[b][j]
					}
				}
			}
		}
		for a := 0; a < G; a++ {
			it := ate.ts.Items[rep[a]]
			w := ate.nets[it.ConfigIndex].W[0]
			for j := 0; j < width; j++ {
				mu := 0.0
				for i, on := range it.Pattern {
					if on {
						mu += w[i*width+j]
					}
				}
				mean := sum[a][j] / n
				if se := math.Sqrt(overlap(a, a) * sigma2 / n); math.Abs(mean-mu) > 5*se+1e-12 {
					t.Errorf("%s group %d neuron %d: mean %.6g, want %.6g ± %.2g", c.name, a, j, mean, mu, 5*se)
				}
				for b := a; b < G; b++ {
					got := prod[a][b*width+j]/n - mean*sum[b][j]/n
					want := overlap(a, b) * sigma2
					se := math.Sqrt(overlap(a, a)*overlap(b, b)+overlap(a, b)*overlap(a, b)) * sigma2 / math.Sqrt(n)
					if math.Abs(got-want) > 5*se+1e-12 {
						t.Errorf("%s groups %d, %d neuron %d: covariance %.4g, want %.4g ± %.2g", c.name, a, b, j, got, want, 5*se)
					}
				}
			}
			got := cross[a]/n - sum[a][0]/n*sum[a][1]/n
			if se := overlap(a, a) * sigma2 / math.Sqrt(n); math.Abs(got) > 5*se+1e-12 {
				t.Errorf("%s group %d: neurons 0 and 1 covary by %.4g, want 0 ± %.2g", c.name, a, got, 5*se)
			}
		}
		t.Logf("%s: %d groups over %d atoms, %d pairs overlapping in part", c.name, G, len(l.size), partial)
	}
}

// TestAtomDieMatchesPerWeightDie is the formula oracle: a die whose atom
// sums are the sums of a full per-synapse error tensor over each atom,
// whose deeper boundaries and boundary-0 reads are that tensor's own
// entries, must give the per-weight die's result on every item whose
// per-weight run puts no membrane potential within rounding distance of a
// threshold. The two dies then read the same deviations and differ only
// in the order of their additions.
func TestAtomDieMatchesPerWeightDie(t *testing.T) {
	ate, dies, vary := atomFixture(t)
	arch := ate.ts.Arch
	width := arch[1]
	l := ate.input.get()
	theta := ate.nets[0].Params.Theta
	const eps = 1e-9
	compared, skipped, failed := 0, 0, 0
	for i, m := range dies {
		errs := vary.SampleError(arch, stats.NewRNG(chipSeed(31, i)))
		atoms := make([][]float64, len(l.size))
		for a := range atoms {
			atoms[a] = make([]float64, width)
		}
		for k := 0; k < arch[0]; k++ {
			snn.AddInto(atoms[l.atom[k]], errs.E[0][k*width:(k+1)*width])
		}
		d := ate.newDie()
		d.vary = &variation.AtomError{Atoms: atoms, Deep: &variation.ErrorTensor{E: errs.E[1:]}}
		d.off = append([][]float64{nil}, errs.E[1:]...)
		if reads := m.FirstBoundaryReads(nil, arch); len(reads) > 0 {
			d.feed.Off = make([][]float64, arch[0])
			for _, id := range reads {
				d.feed.Off[id.Pre] = errs.E[0][id.Pre*width : (id.Pre+1)*width]
			}
		}
		thresholds := []float64{theta}
		if m != nil {
			for _, th := range m.ThresholdOverride {
				thresholds = append(thresholds, th)
			}
		}
		sims := make([]*snn.Simulator, len(ate.nets))
		for k, it := range ate.ts.Items {
			if sims[it.ConfigIndex] == nil {
				sims[it.ConfigIndex] = snn.NewSimulator(errs.ApplyTo(ate.nets[it.ConfigIndex]))
			}
			want, tr := sims[it.ConfigIndex].RunTrace(it.Pattern, it.Timesteps, it.Mode(), m)
			near := false
			for _, vs := range tr.V[1:] {
				for _, v := range vs {
					for _, th := range thresholds {
						near = near || math.Abs(v-th) < eps
					}
				}
			}
			if near {
				skipped++
				continue
			}
			compared++
			if !want.Equal(ate.Golden(k)) {
				failed++
			}
			if got := d.run(k, m); !got.Equal(want) {
				t.Fatalf("die %d item %d: atom die %v, per-weight die %v", i, k, got, want)
			}
		}
	}
	if compared == 0 || failed == 0 || failed == compared {
		t.Fatalf("fixture broken: %d items compared, %d of them failing", compared, failed)
	}
	t.Logf("%d items compared (%d failing their golden), %d skipped for a potential within %g of a threshold", compared, failed, skipped, eps)
}

// TestSingleDieCallsAllocateNoInputSums: on the paper's 576-256-32-10
// model the single-die calls build one die each and nothing per item
// group. RunChip, Observe and RunChipSession without variation each
// allocate less than a simulator and two layer-1 sums, where a die
// holding one input sum per item group (7 here) would allocate a
// simulator and seven. With variation RunChipSession allocates less than a
// tenth of a per-synapse error tensor (155,968 errors, 1.25 MB): the die
// holds 2 atoms' sums and the 8,512 deeper errors.
func TestSingleDieCallsAllocateNoInputSums(t *testing.T) {
	arch := snn.Arch{576, 256, 32, 10}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	ate.RunChipSession(nil, unreliable.Reliable(), vary, RetestPolicy{}, 1) // builds the goldens and the input layer, registers the instruments
	sim := allocated(func() { simSink = snn.NewSimulator(ate.nets[0]) })
	sum := uint64(8 * arch[1])
	for _, c := range []struct {
		name string
		call func()
	}{
		{"RunChip", func() { ate.RunChip(nil) }},
		{"Observe", func() { ate.Observe(nil) }},
		{"RunChipSession", func() { ate.RunChipSession(nil, unreliable.Reliable(), variation.None(), RetestPolicy{}, 1) }},
	} {
		if got := allocated(c.call); got >= sim+2*sum {
			t.Errorf("%s allocated %d bytes, want under a simulator and two layer-1 sums (%d bytes)", c.name, got, sim+2*sum)
		} else {
			t.Logf("%s allocated %d bytes; a simulator is %d, a layer-1 sum %d", c.name, got, sim, sum)
		}
	}
	tensor := uint64(8 * (arch[0]*arch[1] + arch[1]*arch[2] + arch[2]*arch[3]))
	if got := allocated(func() { ate.RunChipSession(nil, unreliable.Reliable(), vary, RetestPolicy{}, 1) }); got >= tensor/10 {
		t.Errorf("RunChipSession at σ = 10 %% θ allocated %d bytes, want under a tenth of a tensor (%d bytes)", got, tensor/10)
	} else {
		t.Logf("RunChipSession at σ = 10 %% θ allocated %d bytes; a tensor is %d", got, tensor)
	}
}
