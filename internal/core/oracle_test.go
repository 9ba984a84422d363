package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// The reference generator: the map-membership, column-at-a-time faultAct
// and faultProp that the row-filling generator replaced, driven by the same
// Algorithm 5/6 loops, each configuration a fresh snn.New network written
// in place. It is the differential oracle of the generator tests below and
// is never called outside them.

// refMaximizeWeights is Algorithm 1 on a network: every weight between
// layer start and layer end (0-based, inclusive) set to ωmax.
func refMaximizeWeights(cfg *snn.Network, start, end int) {
	for b := max(start, 0); b < end; b++ {
		cfg.FillBoundary(b, cfg.Params.WMax)
	}
}

// refMemberSet builds a membership lookup over two index slices.
func refMemberSet(a, b []int) map[int]bool {
	m := make(map[int]bool, len(a)+len(b))
	for _, i := range a {
		m[i] = true
	}
	for _, i := range b {
		m[i] = true
	}
	return m
}

// refSetColumn sets the weights from every neuron of layer b to neuron j
// of layer b+1 to w.
func refSetColumn(n *snn.Network, b, j int, w float64) {
	nOut := n.Arch[b+1]
	for i := 0; i < n.Arch[b]; i++ {
		n.W[b][i*nOut+j] = w
	}
}

func (g *Generator) refFaultAct(cfg *snn.Network, l int, preTargets, preAnc, targets, anc []int, wpt, wpa float64) snn.Pattern {
	arch := g.opt.Arch
	wmax, wmin := g.opt.Params.WMax, g.opt.Params.WMin()
	var pat snn.Pattern
	if l-1 == 0 {
		pat = snn.NewPattern(arch.Inputs())
		for _, i := range preTargets {
			pat[i] = true
		}
		for _, i := range preAnc {
			pat[i] = true
		}
	} else {
		pat = snn.OnesPattern(arch.Inputs())
		refMaximizeWeights(cfg, 0, l-2)
		isPre := refMemberSet(preTargets, preAnc)
		for j := 0; j < arch[l-1]; j++ {
			if isPre[j] {
				refSetColumn(cfg, l-2, j, wmax)
			} else {
				refSetColumn(cfg, l-2, j, wmin)
			}
		}
	}
	isTarget := refMemberSet(targets, anc)
	isPT := refMemberSet(preTargets, nil)
	isPA := refMemberSet(preAnc, nil)
	for j := 0; j < arch[l]; j++ {
		if !isTarget[j] {
			refSetColumn(cfg, l-1, j, wmin)
			continue
		}
		for i := 0; i < arch[l-1]; i++ {
			switch {
			case isPT[i]:
				cfg.SetEntry(l-1, i, j, wpt)
			case isPA[i]:
				cfg.SetEntry(l-1, i, j, wpa)
			default:
				cfg.SetEntry(l-1, i, j, 0)
			}
		}
	}
	return pat
}

func (g *Generator) refFaultProp(cfg *snn.Network, l int, targets, anc []int, wt, wa float64) {
	arch := g.opt.Arch
	isT := refMemberSet(targets, nil)
	isA := refMemberSet(anc, nil)
	nOut := arch[l+1]
	for i := 0; i < arch[l]; i++ {
		var w float64
		switch {
		case isT[i]:
			w = wt
		case isA[i]:
			w = wa
		default:
			w = 0
		}
		for j := 0; j < nOut; j++ {
			cfg.SetEntry(l, i, j, w)
		}
	}
	refMaximizeWeights(cfg, l+1, arch.Layers()-1)
}

func refPickAncillaries(n int, targets []int, count int) []int {
	if count == 0 {
		return nil
	}
	isT := refMemberSet(targets, nil)
	out := make([]int, 0, count)
	for i := 0; i < n && len(out) < count; i++ {
		if !isT[i] {
			out = append(out, i)
		}
	}
	return out
}

// refGenerate is Generate on the reference faultAct and faultProp.
func (g *Generator) refGenerate(kind fault.Kind) *pattern.TestSet {
	arch := g.opt.Arch
	ts := pattern.NewTestSet(kind.String(), arch, g.opt.Params)
	add := func(label string, cfg *snn.Network, pat snn.Pattern) {
		ts.AddItem(pattern.Item{Label: label, ConfigIndex: ts.AddConfig(cfg), Pattern: pat, Timesteps: g.opt.Timesteps, Repeat: 1})
	}
	switch kind {
	case fault.NASF, fault.SASF:
		cfg := snn.New(arch, g.opt.Params)
		cfg.Fill(g.opt.Params.WMax)
		add(kind.String()+" all", cfg, snn.NewPattern(arch.Inputs()))
	case fault.ESF, fault.HSF:
		thetaHat, cat := g.opt.Values.ESFTheta, CategoryStimulatedWhenFaulty
		if kind == fault.HSF {
			thetaHat, cat = g.opt.Values.HSFTheta, CategoryInhibitedWhenFaulty
		}
		wpt := (g.opt.Params.Theta + thetaHat) / 2
		for l := 1; l < arch.Layers(); l++ {
			prop := g.propagationSettings(cat, arch[l])
			for _, targets := range coverGroups(arch[l], prop.GroupSize) {
				anc := refPickAncillaries(arch[l], targets, prop.Ancillaries(len(targets)))
				cfg := snn.New(arch, g.opt.Params)
				pat := g.refFaultAct(cfg, l, []int{0}, nil, targets, anc, wpt, 0)
				if l < arch.Layers()-1 {
					g.refFaultProp(cfg, l, targets, anc, prop.WT, prop.WA)
				}
				add(fmt.Sprintf("%v L%d tgt[%d:%d]", kind, l+1, targets[0], targets[len(targets)-1]+1), cfg, pat)
			}
		}
	case fault.SWF:
		cat := CategoryStimulatedWhenFaulty
		if g.opt.Values.SWFOmega <= g.opt.Params.Theta {
			cat = CategoryInhibitedWhenFaulty
		}
		for l := 1; l < arch.Layers(); l++ {
			act := g.activationSettings(cat, arch[l-1])
			prop := g.propagationSettings(cat, arch[l])
			for _, preGrp := range coverGroups(arch[l-1], act.GroupSize) {
				preAnc := refPickAncillaries(arch[l-1], preGrp, act.Ancillaries(len(preGrp)))
				for _, tgtGrp := range coverGroups(arch[l], prop.GroupSize) {
					anc := refPickAncillaries(arch[l], tgtGrp, prop.Ancillaries(len(tgtGrp)))
					cfg := snn.New(arch, g.opt.Params)
					pat := g.refFaultAct(cfg, l, preGrp, preAnc, tgtGrp, anc, act.WPT, act.WPA)
					if l < arch.Layers()-1 {
						g.refFaultProp(cfg, l, tgtGrp, anc, prop.WT, prop.WA)
					}
					add(fmt.Sprintf("SWF B%d pre[%d:%d] tgt[%d:%d]",
						l, preGrp[0], preGrp[len(preGrp)-1]+1, tgtGrp[0], tgtGrp[len(tgtGrp)-1]+1), cfg, pat)
				}
			}
		}
	}
	return ts
}

// sameNetwork reports the first weight whose bits differ between a and b.
func sameNetwork(a, b *snn.Network) error {
	if !a.Arch.Equal(b.Arch) || a.Params != b.Params || len(a.W) != len(b.W) {
		return fmt.Errorf("shape or params differ: %v %+v vs %v %+v", a.Arch, a.Params, b.Arch, b.Params)
	}
	for k := range a.W {
		if len(a.W[k]) != len(b.W[k]) {
			return fmt.Errorf("boundary %d: %d weights vs %d", k, len(a.W[k]), len(b.W[k]))
		}
		for i := range a.W[k] {
			if math.Float64bits(a.W[k][i]) != math.Float64bits(b.W[k][i]) {
				return fmt.Errorf("boundary %d weight %d (pre %d, post %d): %v vs %v",
					k, i, i/a.Arch[k+1], i%a.Arch[k+1], a.W[k][i], b.W[k][i])
			}
		}
	}
	return nil
}

// sameSuite reports the first difference between two test sets: any weight
// bit, pattern, label, configuration index, window or repeat count.
func sameSuite(got, want *pattern.TestSet) error {
	if len(got.Configs) != len(want.Configs) || len(got.Items) != len(want.Items) {
		return fmt.Errorf("%d configs / %d items, want %d / %d", len(got.Configs), len(got.Items), len(want.Configs), len(want.Items))
	}
	for c := range got.Configs {
		if err := sameNetwork(got.Configs[c], want.Configs[c]); err != nil {
			return fmt.Errorf("config %d: %v", c, err)
		}
	}
	for i, it := range got.Items {
		w := want.Items[i]
		if it.Label != w.Label || it.ConfigIndex != w.ConfigIndex || it.Timesteps != w.Timesteps ||
			it.Repeat != w.Repeat || !slices.Equal(it.Pattern, w.Pattern) {
			return fmt.Errorf("item %d: %+v, want %+v", i, it, w)
		}
	}
	return nil
}

// oneArrayPerContent reports a boundary on which the configurations of
// sets hold two arrays of bit-identical weights: generated by one call,
// they must hold exactly as many arrays by pointer as by content.
func oneArrayPerContent(sets ...*pattern.TestSet) error {
	bitsEqual := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	for b := 0; b < sets[0].Arch.Boundaries(); b++ {
		var arrays [][]float64 // distinct by pointer
		for _, ts := range sets {
			for _, cfg := range ts.Configs {
				w := cfg.W[b]
				if !slices.ContainsFunc(arrays, func(a []float64) bool { return &a[0] == &w[0] }) {
					arrays = append(arrays, w)
				}
			}
		}
		for i, a := range arrays {
			for j, c := range arrays[:i] {
				if slices.EqualFunc(a, c, bitsEqual) {
					return fmt.Errorf("boundary %d: arrays %d and %d of %d hold the same weights", b, j, i, len(arrays))
				}
			}
		}
	}
	return nil
}

// assertMatchesOracle compares every fault model's suite against the
// reference generator's, alone and from one GenerateAll call, and checks
// that each call holds one array per distinct boundary content.
func assertMatchesOracle(t *testing.T, g *Generator) {
	t.Helper()
	perKind, merged := g.GenerateAll()
	for _, kind := range fault.Kinds() {
		want := g.refGenerate(kind)
		got := g.Generate(kind)
		if err := sameSuite(got, want); err != nil {
			t.Errorf("%v %v %v: %v", g.opt.Arch, g.opt.Regime, kind, err)
		}
		if err := oneArrayPerContent(got); err != nil {
			t.Errorf("%v %v %v: %v", g.opt.Arch, g.opt.Regime, kind, err)
		}
		if err := sameSuite(perKind[kind], want); err != nil {
			t.Errorf("%v %v GenerateAll %v: %v", g.opt.Arch, g.opt.Regime, kind, err)
		}
	}
	all := []*pattern.TestSet{merged}
	for _, kind := range fault.Kinds() {
		all = append(all, perKind[kind])
	}
	if err := oneArrayPerContent(all...); err != nil {
		t.Errorf("%v %v GenerateAll: %v", g.opt.Arch, g.opt.Regime, err)
	}
}

// TestGeneratorMatchesMapOracle: the row-filling generator emits suites
// bit-identical to the map-based reference on both paper models and on
// random architectures, regimes, reset modes and SWF categories.
func TestGeneratorMatchesMapOracle(t *testing.T) {
	for _, arch := range []snn.Arch{{576, 256, 32, 10}, {576, 256, 64, 32, 10}} {
		for _, regime := range []Regime{NoVariation(), NegligibleVariation()} {
			assertMatchesOracle(t, testGenerator(t, arch, regime))
		}
	}
	rng := stats.NewRNG(21)
	nus := []int{1, 2, 5, stats.MaxNu}
	checked := 0
	for trial := 0; trial < 50; trial++ {
		arch := make(snn.Arch, 2+rng.Intn(5))
		for k := range arch {
			arch[k] = 1 + rng.Intn(40)
		}
		params := snn.DefaultParams()
		if rng.Intn(2) == 1 {
			params.Reset = snn.ResetSubtract
		}
		values := fault.PaperValues(params.Theta)
		if rng.Intn(2) == 1 {
			values.SWFOmega = 0.25 * params.Theta // the inhibited SWF category
		}
		regime := NoVariation()
		if nu := rng.Intn(len(nus) + 1); nu < len(nus) {
			regime = Regime{Consider: true, Nu: nus[nu]}
		}
		g, err := NewGenerator(Options{Arch: arch, Params: params, Values: values, Regime: regime})
		if err != nil {
			continue
		}
		checked++
		assertMatchesOracle(t, g)
	}
	if checked < 40 {
		t.Fatalf("only %d of 50 random generators were valid", checked)
	}
}

// TestFaultActMatchesMapOracle drives faultAct and faultProp directly with
// random, possibly overlapping neuron sets, which the Algorithm 5/6 loops
// never produce: the pre-target and target precedence must still match the
// reference.
func TestFaultActMatchesMapOracle(t *testing.T) {
	rng := stats.NewRNG(5)
	pick := func(n int) []int {
		var out []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				out = append(out, i)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		arch := make(snn.Arch, 2+rng.Intn(4))
		for k := range arch {
			arch[k] = 1 + rng.Intn(12)
		}
		g := testGenerator(t, arch, NoVariation())
		l := 1 + rng.Intn(arch.Layers()-1)
		preT, preA, tgt, anc := pick(arch[l-1]), pick(arch[l-1]), pick(arch[l]), pick(arch[l])
		cfg, want := make([]boundary, arch.Boundaries()), snn.New(arch, g.opt.Params)
		gotPat := g.faultAct(cfg, l, preT, preA, tgt, anc, 1.25, -0.75)
		wantPat := g.refFaultAct(want, l, preT, preA, tgt, anc, 1.25, -0.75)
		if l < arch.Layers()-1 {
			g.faultProp(cfg, l, tgt, anc, 3.5, 0.5)
			g.refFaultProp(want, l, tgt, anc, 3.5, 0.5)
		}
		got := g.newArrays().network(cfg)
		if err := sameNetwork(got, want); err != nil || !slices.Equal(gotPat, wantPat) {
			t.Fatalf("%v l=%d pre-targets %v pre-ancillaries %v targets %v ancillaries %v: %v (patterns %v vs %v)",
				arch, l, preT, preA, tgt, anc, err, gotPat, wantPat)
		}
	}
}

// TestBoundaryDescriptionsCompareByContent drives the arrays memo with
// random descriptions over a few values, many of them the same weights
// described another way (every column selected, none selected, rows all
// equal to the off value, or constant rows over the complementary
// columns): each content must get one array, equal to the weights the
// description spells out.
func TestBoundaryDescriptionsCompareByContent(t *testing.T) {
	rng := stats.NewRNG(9)
	levels := []float64{0, 1, -1, math.Copysign(0, -1)}
	g := testGenerator(t, snn.Arch{3, 4}, NoVariation())
	m := g.newArrays()
	var made []*snn.Network
	for trial := 0; trial < 2000; trial++ {
		d := boundary{rows: make([]float64, 3), off: levels[rng.Intn(len(levels))]}
		for i := range d.rows {
			d.rows[i] = levels[rng.Intn(len(levels))]
		}
		if rng.Intn(4) > 0 {
			d.cols = make([]bool, 4)
			for j := range d.cols {
				d.cols[j] = rng.Intn(2) == 1
			}
		}
		net := m.network([]boundary{d})
		want := snn.New(snn.Arch{3, 4}, g.opt.Params)
		for i, v := range d.rows {
			for j := 0; j < 4; j++ {
				w := d.off
				if d.cols == nil || d.cols[j] {
					w = v
				}
				want.SetEntry(0, i, j, w)
			}
		}
		if err := sameNetwork(net, want); err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		made = append(made, net)
	}
	ts := pattern.NewTestSet("memo", snn.Arch{3, 4}, g.opt.Params)
	ts.Configs = made
	if err := oneArrayPerContent(ts); err != nil {
		t.Fatal(err)
	}
}

// TestPaperModelSharedArrays pins how few arrays the merged programs of
// the paper's models hold: per boundary, one per distinct content.
func TestPaperModelSharedArrays(t *testing.T) {
	for _, c := range []struct {
		arch snn.Arch
		want []int
	}{
		{snn.Arch{576, 256, 32, 10}, []int{6, 8, 7}},
		{snn.Arch{576, 256, 64, 32, 10}, []int{6, 8, 8, 7}},
	} {
		_, merged := testGenerator(t, c.arch, NoVariation()).GenerateAll()
		got := make([]int, c.arch.Boundaries())
		for b := range got {
			var arrays []*float64
			for _, cfg := range merged.Configs {
				if p := &cfg.W[b][0]; !slices.Contains(arrays, p) {
					arrays = append(arrays, p)
				}
			}
			got[b] = len(arrays)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v: %v arrays per boundary over %d configurations, want %v", c.arch, got, len(merged.Configs), c.want)
		}
	}
}

// TestGenerateAllConcurrent: one Generator serves concurrent GenerateAll
// calls (run under -race). Each call builds arrays of its own, and each
// emits the suite a call alone does.
func TestGenerateAllConcurrent(t *testing.T) {
	g := testGenerator(t, snn.Arch{12, 9, 6, 4}, NegligibleVariation())
	_, want := g.GenerateAll()
	got := make([]*pattern.TestSet, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i] = g.GenerateAll()
		}()
	}
	wg.Wait()
	for i, ts := range got {
		if err := sameSuite(ts, want); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		if &ts.Configs[0].W[0][0] == &want.Configs[0].W[0][0] {
			t.Errorf("call %d shares its arrays with another call", i)
		}
	}
}
