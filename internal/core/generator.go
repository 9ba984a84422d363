// Package core implements the paper's contribution: low-complexity
// algorithmic test generation for neuromorphic chips without DfT.
//
// A test for a fault consists of a *test configuration* (a full set of
// weights to program) and a *test pattern* (a primary-input spike vector).
// Generation composes two steps:
//
//   - Fault activation (Section 3.2, Algorithm 2, Table 1) drives a
//     designated target neuron or synapse so that its output spike differs
//     between the good and the faulty chip.
//   - Fault propagation (Section 3.3, Algorithm 3, Table 2) sensitizes that
//     difference through every remaining layer to the primary outputs.
//
// NASF and SASF are all tested by one configuration (Algorithm 4); ESF, HSF
// and SWF are tested layer by layer (Algorithms 5 and 6), needing O(L)
// configurations and patterns under negligible or no weight variation
// (Table 3).
//
// Every boundary Algorithms 1–3 write takes one form: weight (i, j) is a
// per-row value where postsynaptic neuron j is selected, else one off
// value. Configurations repeat few of them, so one Generate or GenerateAll
// call builds each distinct boundary array once and points every
// configuration that needs it at that array. Generated configurations are
// therefore read-only: a caller that writes one Clones it first.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// Regime selects between the "consider variation?" No/Yes columns of
// Tables 1 and 2.
type Regime struct {
	// Consider selects the variation-tolerant ("Yes") settings.
	Consider bool
	// Nu is the paper's ν: the maximum number of simultaneously stimulated
	// neurons whose accumulated weight error leaves every output unchanged
	// (Eq. 4). Only meaningful when Consider is true. stats.MaxNu means
	// "negligible variation" — ν exceeds every layer width.
	Nu int
}

// NoVariation returns the regime using the "No" columns of Tables 1/2.
func NoVariation() Regime { return Regime{} }

// NegligibleVariation returns the variation-tolerant regime with unbounded
// ν — the assumption under which the paper sweeps Fig. 4.
func NegligibleVariation() Regime { return Regime{Consider: true, Nu: stats.MaxNu} }

// ForSigma returns the variation-tolerant regime with ν computed from the
// actual variation σ and confidence multiplier c (Section 4.1).
func ForSigma(omegaMax, sigma, c float64) Regime {
	return Regime{Consider: true, Nu: stats.Nu(omegaMax, sigma, c)}
}

// String renders the regime for reports.
func (r Regime) String() string {
	if !r.Consider {
		return "no-variation"
	}
	if r.Nu >= stats.MaxNu {
		return "variation-aware (ν unbounded)"
	}
	return fmt.Sprintf("variation-aware (ν=%d)", r.Nu)
}

// Options parameterizes a Generator.
type Options struct {
	Arch   snn.Arch
	Params snn.Params
	// Values holds the fault-strength parameters θ̂ and ω̂ the tests are
	// aimed at.
	Values fault.Values
	// Regime selects the Table 1/2 columns.
	Regime Regime
	// Timesteps is the observation window per pattern. The deterministic
	// tests resolve within one timestep; a slightly longer window also
	// observes always-spike faults repeatedly. Default 4.
	Timesteps int
}

// Generator emits test sets per fault model. It holds only its options, so
// one Generator is safe for concurrent use.
type Generator struct {
	opt Options
}

// NewGenerator validates the options and returns a generator.
func NewGenerator(opt Options) (*Generator, error) {
	if err := opt.Arch.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Values.Validate(opt.Params.Theta); err != nil {
		return nil, err
	}
	if opt.Timesteps == 0 {
		opt.Timesteps = 4
	}
	if opt.Timesteps < 1 || opt.Timesteps > snn.MaxTimesteps {
		return nil, fmt.Errorf("core: timesteps %d out of [1,%d]", opt.Timesteps, snn.MaxTimesteps)
	}
	if opt.Regime.Consider && opt.Regime.Nu < 1 {
		return nil, fmt.Errorf("core: variation-aware regime needs ν >= 1, got %d (variation too large for any test)", opt.Regime.Nu)
	}
	return &Generator{opt: opt}, nil
}

// Options returns the generator's (defaulted) options.
//
//lint:ignore dead-code tests in compact, core, diagnose, online, repair and tester read fault values and params of their suites through it
func (g *Generator) Options() Options { return g.opt }

// Generate emits the test set for one fault model. Its configurations
// share their boundary arrays (see the package doc) and are read-only.
func (g *Generator) Generate(kind fault.Kind) *pattern.TestSet {
	return g.generate(kind, g.newArrays())
}

func (g *Generator) generate(kind fault.Kind, m *arrays) *pattern.TestSet {
	switch kind {
	case fault.NASF, fault.SASF:
		return g.generateAlwaysSpike(kind, m)
	case fault.ESF:
		return g.generateThresholdFault(fault.ESF, m)
	case fault.HSF:
		return g.generateThresholdFault(fault.HSF, m)
	case fault.SWF:
		return g.generateSWF(m)
	default:
		panic(fmt.Sprintf("core: unknown fault kind %v", kind))
	}
}

// GenerateAll emits one test set per fault model, keyed by model, plus a
// merged set in tester order (NASF and SASF share their single
// configuration, which the merged set deduplicates). Every set of the call
// shares one array per distinct boundary content, and the merged set
// shares the per-model sets' networks; all of them are read-only.
func (g *Generator) GenerateAll() (map[fault.Kind]*pattern.TestSet, *pattern.TestSet) {
	m := g.newArrays()
	perKind := make(map[fault.Kind]*pattern.TestSet)
	merged := pattern.NewTestSet("proposed", g.opt.Arch, g.opt.Params)
	for _, k := range fault.Kinds() {
		ts := g.generate(k, m)
		perKind[k] = ts
		if k == fault.SASF {
			// Identical to the NASF configuration and pattern — apply once.
			continue
		}
		merged.Merge(ts)
	}
	return perKind, merged
}

// generateAlwaysSpike implements Algorithm 4: a single all-ωmax
// configuration with an all-zero pattern tests every NASF and SASF.
func (g *Generator) generateAlwaysSpike(kind fault.Kind, m *arrays) *pattern.TestSet {
	ts := pattern.NewTestSet(kind.String(), g.opt.Arch, g.opt.Params)
	cfg := make([]boundary, g.opt.Arch.Boundaries())
	g.maximizeWeights(cfg, 0, len(cfg))
	ci := ts.AddConfig(m.network(cfg))
	ts.AddItem(pattern.Item{
		Label:       kind.String() + " all",
		ConfigIndex: ci,
		Pattern:     snn.NewPattern(g.opt.Arch.Inputs()),
		Timesteps:   g.opt.Timesteps,
		Repeat:      1,
	})
	return ts
}

// generateThresholdFault implements Algorithm 5 for ESF and HSF: for every
// layer ℓ = 2..L, cover its neurons with target groups sized by Table 2 and
// emit one (configuration, pattern) pair per group. The pre-target is always
// the first neuron of layer ℓ-1 with ω_pt = (θ+θ̂)/2. When θ̂ and θ are
// adjacent floats there is nothing between them, and the rounded midpoint
// can land on the one of the two that the good and the faulty target treat
// alike; ω_pt then takes the other, which still fires exactly one of them.
func (g *Generator) generateThresholdFault(kind fault.Kind, m *arrays) *pattern.TestSet {
	ts := pattern.NewTestSet(kind.String(), g.opt.Arch, g.opt.Params)
	theta := g.opt.Params.Theta
	var thetaHat float64
	var cat Category
	if kind == fault.ESF {
		thetaHat = g.opt.Values.ESFTheta
		cat = CategoryStimulatedWhenFaulty
	} else {
		thetaHat = g.opt.Values.HSFTheta
		cat = CategoryInhibitedWhenFaulty
	}
	wpt := (theta + thetaHat) / 2
	switch {
	case kind == fault.ESF && wpt <= thetaHat: // good target silent (ω_pt ≤ θ), faulty fires (ω_pt > θ̂)
		wpt = theta
	case kind == fault.HSF && wpt <= theta: // good target fires (ω_pt > θ), faulty silent (ω_pt ≤ θ̂)
		wpt = thetaHat
	}

	arch := g.opt.Arch
	for l := 1; l < arch.Layers(); l++ {
		prop := g.propagationSettings(cat, arch[l])
		for _, grp := range coverGroups(arch[l], prop.GroupSize) {
			targets := grp
			anc := pickAncillaries(arch[l], targets, prop.Ancillaries(len(targets)))
			cfg := make([]boundary, arch.Boundaries())
			pat := g.faultAct(cfg, l, []int{0}, nil, targets, anc, wpt, 0)
			if l < arch.Layers()-1 {
				g.faultProp(cfg, l, targets, anc, prop.WT, prop.WA)
			}
			ci := ts.AddConfig(m.network(cfg))
			ts.AddItem(pattern.Item{
				Label:       fmt.Sprintf("%v L%d tgt[%d:%d]", kind, l+1, targets[0], targets[len(targets)-1]+1),
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   g.opt.Timesteps,
				Repeat:      1,
			})
		}
	}
	return ts
}

// generateSWF implements Algorithm 6: for every boundary, cover the
// presynaptic layer with pre-target groups (Table 1) and the postsynaptic
// layer with target groups (Table 2), emitting one pair per combination.
func (g *Generator) generateSWF(m *arrays) *pattern.TestSet {
	ts := pattern.NewTestSet("SWF", g.opt.Arch, g.opt.Params)
	arch := g.opt.Arch
	cat := CategoryStimulatedWhenFaulty
	if g.opt.Values.SWFOmega <= g.opt.Params.Theta {
		cat = CategoryInhibitedWhenFaulty
	}
	for l := 1; l < arch.Layers(); l++ {
		act := g.activationSettings(cat, arch[l-1])
		prop := g.propagationSettings(cat, arch[l])
		for _, preGrp := range coverGroups(arch[l-1], act.GroupSize) {
			preAnc := pickAncillaries(arch[l-1], preGrp, act.Ancillaries(len(preGrp)))
			for _, tgtGrp := range coverGroups(arch[l], prop.GroupSize) {
				anc := pickAncillaries(arch[l], tgtGrp, prop.Ancillaries(len(tgtGrp)))
				cfg := make([]boundary, arch.Boundaries())
				pat := g.faultAct(cfg, l, preGrp, preAnc, tgtGrp, anc, act.WPT, act.WPA)
				if l < arch.Layers()-1 {
					g.faultProp(cfg, l, tgtGrp, anc, prop.WT, prop.WA)
				}
				ci := ts.AddConfig(m.network(cfg))
				ts.AddItem(pattern.Item{
					Label: fmt.Sprintf("SWF B%d pre[%d:%d] tgt[%d:%d]",
						l, preGrp[0], preGrp[len(preGrp)-1]+1, tgtGrp[0], tgtGrp[len(tgtGrp)-1]+1),
					ConfigIndex: ci,
					Pattern:     pat,
					Timesteps:   g.opt.Timesteps,
					Repeat:      1,
				})
			}
		}
	}
	return ts
}

// faultAct implements Algorithm 2 (fault activation) on the boundaries of
// cfg up to target layer l (0-based; the paper's ℓ = l+1) and returns the
// test pattern.
//
//   - Pre-target and pre-ancillary neurons of layer l-1 are stimulated,
//     every other neuron of layer l-1 is inhibited.
//   - Weights into target and ancillary neurons of layer l come from
//     pre-targets at ω_pt and pre-ancillaries at ω_pa (0 from everyone
//     else); every other neuron of layer l is inhibited via ωmin columns.
func (g *Generator) faultAct(cfg []boundary, l int, preTargets, preAnc, targets, anc []int, wpt, wpa float64) snn.Pattern {
	arch := g.opt.Arch
	wmax, wmin := g.opt.Params.WMax, g.opt.Params.WMin()

	var pat snn.Pattern
	if l-1 == 0 {
		// Layer ℓ-1 is the input layer: stimulate pre-targets and
		// pre-ancillaries directly through the primary inputs.
		pat = snn.NewPattern(arch.Inputs())
		for _, i := range preTargets {
			pat[i] = true
		}
		for _, i := range preAnc {
			pat[i] = true
		}
	} else {
		// Fire every primary input, saturate layers 1..ℓ-2, then select
		// the pre-targets/pre-ancillaries at boundary ℓ-2: every neuron of
		// layer ℓ-2 feeds them at ωmax and everyone else at ωmin.
		pat = snn.OnesPattern(arch.Inputs())
		g.maximizeWeights(cfg, 0, l-2)
		cfg[l-2] = boundary{rows: constRows(arch[l-2], wmax), cols: members(arch[l-1], preTargets, preAnc), off: wmin}
	}

	// Boundary ℓ-1 → ℓ: ω_pt / ω_pa / 0 into targets and ancillaries,
	// ωmin into everyone else. Pre-targets take precedence over
	// pre-ancillaries, so they are written last.
	pre := make([]float64, arch[l-1])
	for _, i := range preAnc {
		pre[i] = wpa
	}
	for _, i := range preTargets {
		pre[i] = wpt
	}
	cfg[l-1] = boundary{rows: pre, cols: members(arch[l], targets, anc), off: wmin}
	return pat
}

// faultProp implements Algorithm 3 (fault propagation) on the boundaries
// of cfg from layer l on: weights out of targets are ω_t, out of
// ancillaries ω_a, 0 from everyone else; all boundaries after layer l+1
// are saturated at ωmax. Targets take precedence over ancillaries.
func (g *Generator) faultProp(cfg []boundary, l int, targets, anc []int, wt, wa float64) {
	arch := g.opt.Arch
	val := make([]float64, arch[l])
	for _, i := range anc {
		val[i] = wa
	}
	for _, i := range targets {
		val[i] = wt
	}
	cfg[l] = boundary{rows: val}
	g.maximizeWeights(cfg, l+1, arch.Layers()-1)
}

// maximizeWeights implements Algorithm 1: set every weight between layer
// start and layer end (0-based, inclusive) of cfg to ωmax. start >= end is
// a no-op.
func (g *Generator) maximizeWeights(cfg []boundary, start, end int) {
	for b := max(start, 0); b < end; b++ {
		cfg[b] = boundary{rows: constRows(g.opt.Arch[b], g.opt.Params.WMax)}
	}
}

// constRows returns n rows of value v.
func constRows(n int, v float64) []float64 {
	rows := make([]float64, n)
	for i := range rows {
		rows[i] = v
	}
	return rows
}

// boundary describes one boundary's weights in the form every boundary of
// Algorithms 1–3 takes: weight (i, j) is rows[i] where column j (the
// postsynaptic neuron) is selected, else off. An all-ωmax boundary selects
// every column of ωmax rows; a selection boundary selects the pre-targets
// and pre-ancillaries of ωmax rows over ωmin; an activation boundary the
// targets and ancillaries of ω_pt/ω_pa/0 rows over ωmin; a propagation
// boundary every column of ω_t/ω_a/0 rows. Every step describes each
// boundary it writes in full, and a configuration's steps together write
// every boundary.
type boundary struct {
	rows []float64 // value of each presynaptic row on the selected columns
	cols []bool    // selected columns; nil selects every column
	off  float64   // value of the other columns
}

// selected reports whether column j holds the rows.
func (d boundary) selected(j int) bool { return d.cols == nil || d.cols[j] }

// hash hashes the content d describes over nOut columns: each column is
// either the rows or the constant off column, and equal columns hash
// equally however they are described.
func (d boundary) hash(nOut int) uint64 {
	hr, ho := uint64(hashSeed), uint64(hashSeed)
	for _, v := range d.rows {
		hr = hashWord(hr, math.Float64bits(v))
		ho = hashWord(ho, math.Float64bits(d.off))
	}
	h := uint64(hashSeed)
	for j := 0; j < nOut; j++ {
		if d.selected(j) {
			h = hashWord(h, hr)
		} else {
			h = hashWord(h, ho)
		}
	}
	return h
}

// same reports whether d and e, two descriptions of one boundary of nOut
// columns, describe bit-identical weights.
func (d boundary) same(e boundary, nOut int) bool {
	// Column j of either is its rows or its constant off column: compare
	// the four pairs of columns once, then look up each column's pair.
	dOff, eOff := math.Float64bits(d.off), math.Float64bits(e.off)
	rowsRows, rowsOff, offRows := true, true, true
	for i, v := range d.rows {
		dv, ev := math.Float64bits(v), math.Float64bits(e.rows[i])
		rowsRows = rowsRows && dv == ev
		rowsOff = rowsOff && dv == eOff
		offRows = offRows && dOff == ev
	}
	for j := 0; j < nOut; j++ {
		var eq bool
		switch ds, es := d.selected(j), e.selected(j); {
		case ds && es:
			eq = rowsRows
		case ds:
			eq = rowsOff
		case es:
			eq = offRows
		default:
			eq = dOff == eOff
		}
		if !eq {
			return false
		}
	}
	return true
}

// fill writes the weights d describes into w, row-major over nOut
// columns. A row equal to the one before it is copied.
func (d boundary) fill(w []float64, nOut int) {
	for i, v := range d.rows {
		row := w[i*nOut : (i+1)*nOut]
		if i > 0 && math.Float64bits(v) == math.Float64bits(d.rows[i-1]) {
			copy(row, w[(i-1)*nOut:i*nOut])
			continue
		}
		for j := range row {
			if d.selected(j) {
				row[j] = v
			} else {
				row[j] = d.off
			}
		}
	}
}

// arrays builds the boundary arrays of one Generate or GenerateAll call,
// each distinct content once: a boundary whose weights equal an earlier
// one's, bit for bit, gets that one's array. It lives for one call, so a
// Generator keeps no state between calls.
type arrays struct {
	arch   snn.Arch
	params snn.Params
	built  map[arrayKey][]builtArray
}

// arrayKey is a boundary and the hash of its content.
type arrayKey struct {
	b int
	h uint64
}

// builtArray is one built array and the description it was built from.
type builtArray struct {
	d boundary
	w []float64
}

func (g *Generator) newArrays() *arrays {
	return &arrays{arch: g.opt.Arch.Clone(), params: g.opt.Params, built: make(map[arrayKey][]builtArray)}
}

// network returns the configuration cfg describes, one description per
// boundary, its boundaries pointing at the call's arrays. The network
// shares the call's architecture and arrays and is read-only.
func (m *arrays) network(cfg []boundary) *snn.Network {
	w := make([][]float64, len(cfg))
	for b, d := range cfg {
		w[b] = m.array(b, d)
	}
	return &snn.Network{Arch: m.arch, Params: m.params, W: w}
}

// array returns the call's array of boundary b with the weights d
// describes, building it on first use.
func (m *arrays) array(b int, d boundary) []float64 {
	nOut := m.arch[b+1]
	k := arrayKey{b: b, h: d.hash(nOut)}
	for _, a := range m.built[k] {
		if a.d.same(d, nOut) {
			return a.w
		}
	}
	w := make([]float64, m.arch[b]*nOut)
	d.fill(w, nOut)
	m.built[k] = append(m.built[k], builtArray{d: d, w: w})
	return w
}

const (
	hashSeed = 0x243F6A8885A308D3
	hashMul  = 0x9E3779B97F4A7C15
)

// hashWord folds the word v into the running hash h.
func hashWord(h, v uint64) uint64 { return (bits.RotateLeft64(h, 27) ^ v) * hashMul }

// coverGroups partitions [0, n) into consecutive chunks of at most size,
// covering every index exactly once (the "while ∃ neuron not once covered"
// loops of Algorithms 5/6).
func coverGroups(n, size int) [][]int {
	if size < 1 {
		size = 1
	}
	var out [][]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		grp := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			grp = append(grp, i)
		}
		out = append(out, grp)
	}
	return out
}

// pickAncillaries selects count ancillary indices from [0, n) avoiding the
// target set. It panics when the layer cannot supply them — settings are
// clamped so this never happens for valid regimes.
func pickAncillaries(n int, targets []int, count int) []int {
	if count == 0 {
		return nil
	}
	isT := members(n, targets, nil)
	out := make([]int, 0, count)
	for i := 0; i < n && len(out) < count; i++ {
		if !isT[i] {
			out = append(out, i)
		}
	}
	if len(out) < count {
		//lint:ignore no-panic unreachable by construction: Options validation bounds targets per layer
		panic(fmt.Sprintf("core: layer of width %d cannot supply %d ancillaries beside %d targets", n, count, len(targets)))
	}
	return out
}

// members marks the indices listed in a or b among [0, n).
func members(n int, a, b []int) []bool {
	m := make([]bool, n)
	for _, i := range a {
		m[i] = true
	}
	for _, i := range b {
		m[i] = true
	}
	return m
}
