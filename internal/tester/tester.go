// Package tester models the automatic test equipment (ATE) side of the
// flow: given a test set it derives golden responses from the nominal
// design, applies the tests to chips under test (simulated good or faulty
// dies, with or without weight variation), and computes the three quality
// metrics of the paper's evaluation — fault coverage, test escape and
// overkill (Sections 5.2, 5.3).
package tester

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// ATE holds a test program with precomputed golden responses.
//
// Golden responses are simulated from the design *as programmed*: the
// quantization scheme the chip's weight memory applies programs the test
// set once (quant.Program), and the chips under test and the expected
// outputs both read those programmed configurations, exactly like a
// production flow that goldens against the post-quantization model.
type ATE struct {
	ts   *pattern.TestSet // the test set as generated
	nets []*snn.Network   // programmed configuration per config index
	// goldens memoizes the fault-simulation Golden of the programmed test
	// set (good-chip traces plus the downstream memo); coverage campaigns
	// read it. It is held by pointer so tolerance clones share it: one
	// golden build and one warm memo serve every campaign over this test
	// program, which is the neurotestd artifact-cache access pattern.
	goldens *goldenShare
	// expected is the share the expected responses come from: goldens
	// itself for New, whose good-chip traces double as the expected
	// outputs, and the ideal ATE's share for NewSplit.
	expected *goldenShare
	// input is what every die shares about the input layer (item groups,
	// their weight-only layer-1 sums and the input atoms), built by the
	// first die and shared by tolerance clones.
	input *inputLayer
	// tolerance is the pass band on each output spike count (see
	// CloneWithTolerance). 0 means exact comparison.
	tolerance int
}

// goldenShare memoizes one faultsim.Golden of its test set behind an ATE
// and all of its tolerance clones. A test set the build rejects
// (faultsim.NewGolden validates it) leaves the share with that error, which
// every campaign surfaces instead of crashing the caller.
type goldenShare struct {
	ts   *pattern.TestSet
	once sync.Once
	g    *faultsim.Golden
	err  error
}

// get returns the memoized Golden, building it on first use.
func (s *goldenShare) get() (*faultsim.Golden, error) {
	s.once.Do(func() {
		if s.g, s.err = faultsim.NewGolden(s.ts); s.err != nil {
			s.err = fmt.Errorf("tester: building golden traces: %w", s.err)
		}
	})
	return s.g, s.err
}

// inputLayer is what every die of a test program shares about how its
// items drive layer 1. It is built by the program's first die, under one
// sync.Once, and shared by tolerance clones like goldenShare; New, golden
// responses and coverage build none of it.
//
// Items fall into groups whose members drive the same layer-1 input on
// any one die (pattern.TestSet.InputGroups, the grouping the golden build
// uses): their patterns are equal and their programmed boundary-0 weights
// are bit-identical. Each group's weight-only layer-1 sum, Σ over the
// pattern's input neurons of their programmed rows, is added once, in
// neuron order (pattern.TestSet.InputSum), for every die.
//
// The input neurons fall into atoms: neurons driven by exactly the same
// items. Every pattern is a union of atoms, so a die's deviation over a
// pattern is the sum of its atoms' (variation.AtomError), and a die adds a
// group's atom sums onto the group's weight sum instead of adding up to
// one offset row per input neuron.
type inputLayer struct {
	ts    *pattern.TestSet // the test set as programmed
	once  sync.Once
	group []int       // group of each item
	sums  [][]float64 // weight-only layer-1 sum of each group
	atom  []int       // atom of each input neuron
	size  []int       // input neurons in each atom
	atoms [][]int     // atoms of each group's pattern, ascending
}

// get returns the input layer, building it on first use.
func (l *inputLayer) get() *inputLayer {
	l.once.Do(l.build)
	return l
}

// build groups the items, sums each group's weights, and numbers the atoms
// in order of their first input neuron.
func (l *inputLayer) build() {
	var reps []int // first member of each group
	l.group, reps = l.ts.InputGroups()
	l.sums = make([][]float64, len(reps))
	for g, r := range reps {
		l.sums[g] = l.ts.InputSum(l.ts.Items[r])
	}
	// An input neuron's key is the set of groups whose pattern drives it.
	l.atom = make([]int, l.ts.Arch[0])
	var first []int // first input neuron of each atom
	index := map[string]int{}
	key := make([]byte, (len(reps)+7)/8)
	for i := range l.atom {
		clear(key)
		for g, r := range reps {
			if l.ts.Items[r].Pattern[i] {
				key[g/8] |= 1 << (g % 8)
			}
		}
		a, ok := index[string(key)]
		if !ok {
			a = len(first)
			index[string(key)] = a
			first = append(first, i)
			l.size = append(l.size, 0)
		}
		l.atom[i] = a
		l.size[a]++
	}
	l.atoms = make([][]int, len(reps))
	for g, r := range reps {
		for a, i := range first {
			if l.ts.Items[r].Pattern[i] {
				l.atoms[g] = append(l.atoms[g], a)
			}
		}
	}
}

// CloneWithTolerance returns a copy of the ATE with its own pass band,
// sharing the (immutable) test set, configurations, input layer (item
// groups, their weight sums and the input atoms) and the memoized
// fault-simulation Goldens (traces and downstream memo). A chip passes an
// item when every output count is within ±n of the golden count; negative
// tolerances are a configuration error.
//
// The deterministic method uses n = 0 — its configurations engineer exact
// outputs. Statistical baselines decide pass/fail from firing-rate
// estimates whose resolution is bounded by their repetition budget, so
// their production testers accept counts within the estimation resolution;
// n = 1 models that band.
//
// Campaign methods never mutate the ATE, so one memoized ATE can serve
// concurrent campaigns under different tolerances via cheap clones — the
// access pattern of the neurotestd artifact cache — and those campaigns
// simulate golden traces once between them.
func (a *ATE) CloneWithTolerance(n int) (*ATE, error) {
	if n < 0 {
		return nil, fmt.Errorf("tester: negative tolerance %d", n)
	}
	c := *a
	c.tolerance = n
	return &c, nil
}

// matches reports whether got passes against want under the ATE's
// tolerance.
func (a *ATE) matches(got, want snn.Result) bool {
	if a.tolerance == 0 {
		return got.Equal(want)
	}
	if len(got.SpikeCounts) != len(want.SpikeCounts) {
		return false
	}
	for i := range got.SpikeCounts {
		d := got.SpikeCounts[i] - want.SpikeCounts[i]
		if d < -a.tolerance || d > a.tolerance {
			return false
		}
	}
	return true
}

// New builds an ATE for ts whose chips are programmed under scheme (nil
// for ideal weights). Golden responses and chips-under-test read the same
// programmed configurations, the flow of a shop that goldens against the
// post-quantization model; the test set is programmed once, here.
//
// New itself simulates nothing: golden responses are derived on first use
// from the same shared fault-simulation Golden the coverage campaigns read,
// so the good-chip traces of a test program are simulated exactly once no
// matter which campaign touches the ATE first.
func New(ts *pattern.TestSet, scheme *quant.Scheme) *ATE {
	programmed := quant.Program(ts, scheme)
	share := &goldenShare{ts: programmed}
	return &ATE{ts: ts, nets: programmed.Configs, goldens: share, expected: share,
		input: &inputLayer{ts: programmed}}
}

// NewSplit builds an exact ATE for ideal's test set whose golden responses
// are ideal's, read from its Golden, while chips under test are programmed
// under chip. Production flows that golden against the *ideal* model but
// ship quantized silicon use NewSplit(New(ts, nil), scheme): any
// behavioural gap the quantizer opens then shows up as overkill, which is
// exactly the effect the paper's "overkill with quantization" rows
// measure. Coverage still fault-simulates the programmed chip.
func NewSplit(ideal *ATE, chip *quant.Scheme) *ATE {
	a := New(ideal.ts, chip)
	a.expected = ideal.expected
	return a
}

// TestSet returns the underlying test program, as generated.
func (a *ATE) TestSet() *pattern.TestSet { return a.ts }

// Golden returns the expected output of item i, read from the
// expected-response Golden, which is built on first use.
func (a *ATE) Golden(i int) snn.Result {
	g, err := a.expected.get()
	if err != nil {
		// The lazy build fails when the test set does not validate (a
		// pattern that does not fit the input layer, say). Coverage reports
		// the build failure as its error; chip campaigns re-panic it on
		// their caller.
		//lint:ignore no-panic the build failure of a malformed test set reaches every reader of goldens
		panic(err)
	}
	return g.Result(i)
}

// Verdict is the outcome of testing one chip.
type Verdict struct {
	// Passed is true when every item matched its golden response.
	Passed bool
	// FailedItem is the index of the first mismatching item, or -1.
	FailedItem int
	// ItemsRun counts the items applied before the verdict.
	ItemsRun int
}

// RunChip applies the full test program to one chip under test without
// weight variation; mods injects the die's physical defect (nil for a
// defect-free die). It is the reliable session under the zero retest
// policy on a fresh die: RunChipSession(mods, unreliable.Reliable(),
// variation.None(), RetestPolicy{}, seed) for any seed. Testing stops at
// the first failing item (production ATE behaviour).
func (a *ATE) RunChip(mods *snn.Modifiers) Verdict {
	rep := a.session(a.newDie(), mods, unreliable.Reliable(), RetestPolicy{}, 0)
	return Verdict{Passed: rep.Outcome == Pass, FailedItem: rep.FailedItem, ItemsRun: rep.ItemsRun}
}

// Observe applies the full test program to one variation-free die carrying
// mods and returns which items fail: the die is programmed through the same
// path as RunChip's, but no item stops the run. Each item is compared
// exactly, whatever the ATE's tolerance, because the result is a
// diagnostic signature matched against dictionary rows that count any
// deviation.
func (a *ATE) Observe(mods *snn.Modifiers) []bool {
	d := a.newDie()
	fails := make([]bool, len(a.ts.Items))
	for i := range a.ts.Items {
		fails[i] = !d.run(i, mods).Equal(a.Golden(i))
	}
	return fails
}

// die is one chip under test as the ATE programs it. Items are applied in
// order; a configuration is (re)programmed when first encountered, then
// reused for consecutive items sharing it.
//
// A die is a view. Programming a configuration only rebinds the simulator
// to the ATE's shared network, so no die writes a weight. Layer 1's input
// comes from the input layer (snn.Simulator.RunInput): without variation
// an item reads its group's shared weight sum as it is. With variation the
// die holds the chip's variation.AtomError: the group's atom sums go onto
// its weight sum once per group run, the deeper boundaries are read
// through the per-synapse tensor (snn.Simulator.Bind, with no offset on
// boundary 0), and the boundary-0 synapses the chip's defect reads one at
// a time are drawn at reset. A pool slot tests chip after chip on one die,
// resetting it between chips.
type die struct {
	a     *ATE
	in    *inputLayer
	vary  *variation.AtomError // the chip's variation, or nil
	off   [][]float64          // the offset the simulator reads: no boundary 0, then vary.Deep
	feed  snn.Input            // layer 1's input of the item running
	sum   []float64            // layer-1 sum of group sumOf on this chip, with variation
	sumOf int                  // group whose sum is in sum, or -1
	reads []snn.SynapseID      // boundary-0 synapses the chip's defect reads one at a time
	cfg   int                  // configuration currently programmed, or -1
	sim   *snn.Simulator
}

// newDie returns a blank die without variation, building the ATE's input
// layer if no die has yet.
func (a *ATE) newDie() *die {
	return &die{a: a, in: a.input.get(), cfg: -1}
}

// reset readies the die for its next chip, whose defect is mods: it draws
// the chip's variation from rng (variation.Model.SampleAtoms, into the
// die's AtomError), then the boundary-0 synapses mods reads one at a time
// (variation.AtomError.Reads, in SynapseID order), and forgets the
// previous chip's configuration and sums. A session whose intermittence
// leaves the defect inactive runs items without mods and reads none of
// those draws; the draws never depend on it. A zero model draws nothing
// and touches no rng. It returns d.
func (d *die) reset(vary variation.Model, rng *stats.RNG, mods *snn.Modifiers) *die {
	d.vary = vary.SampleAtoms(d.vary, d.a.ts.Arch, d.in.size, rng)
	d.cfg, d.sumOf = -1, -1
	if d.vary == nil {
		d.off, d.feed.Off = nil, nil
		return d
	}
	d.off = append(append(d.off[:0], nil), d.vary.Deep.E...)
	d.reads = mods.FirstBoundaryReads(d.reads[:0], d.a.ts.Arch)
	d.feed.Off = d.vary.Reads(d.reads, d.in.atom, rng)
	return d
}

// run applies item i to the die carrying mods.
func (d *die) run(i int, mods *snn.Modifiers) snn.Result {
	it := d.a.ts.Items[i]
	d.feed.Sum = d.groupSum(d.in.group[i])
	return d.program(it.ConfigIndex).RunInput(&d.feed, it.Pattern, it.Timesteps, it.Mode(), mods)
}

// groupSum returns layer 1's input for group g's pattern on this chip: the
// shared weight sum without variation, else the weight sum plus the
// group's atom sums, in atom order, summed once per run of the group.
func (d *die) groupSum(g int) []float64 {
	if d.vary == nil {
		return d.in.sums[g]
	}
	if g != d.sumOf {
		d.sum = append(d.sum[:0], d.in.sums[g]...)
		for _, a := range d.in.atoms[g] {
			snn.AddInto(d.sum, d.vary.Atoms[a])
		}
		d.sumOf = g
	}
	return d.sum
}

// program returns a simulator of configuration ci as programmed into the
// die.
func (d *die) program(ci int) *snn.Simulator {
	if ci == d.cfg {
		return d.sim
	}
	net := d.a.nets[ci]
	if d.sim == nil {
		d.sim = snn.NewSimulator(net)
	}
	if err := d.sim.Bind(net, d.off); err != nil {
		// Unreachable for a valid test set: every configuration has the
		// test set's architecture, which the variation was drawn for.
		//lint:ignore no-panic a die's shapes come from its own test set
		panic(err)
	}
	d.cfg = ci
	return d.sim
}

// WorkerError records a panic recovered from one chip of a session
// campaign, whose defect models (mods) are caller code: the campaign
// surfaces it in SessionStats.Errors instead of crashing.
type WorkerError struct {
	// Worker is the pool slot that hit the panic.
	Worker int
	// Chip is the chip's index in the population.
	Chip int
	// Panic is the recovered value.
	Panic any
}

// Error renders the failure with its chip context.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("tester: session worker %d panicked chip %d: %v", e.Worker, e.Chip, e.Panic)
}

// CoverageResult summarises a fault-coverage campaign.
type CoverageResult struct {
	Total    int
	Detected int
	// Undetected lists the undetected faults in input order.
	Undetected []fault.Fault
	// Errors holds, in input order, one error per fault the campaign
	// rejected without simulating it because it is not a fault of the chip
	// (fault.Fault.In), or the one error of a golden build that failed.
	// Rejected faults count in Total but neither as detected nor as
	// undetected.
	Errors []error
}

// Coverage returns the fault coverage percentage.
func (c CoverageResult) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// String renders like the paper's tables, e.g. "100.00%".
func (c CoverageResult) String() string {
	s := fmt.Sprintf("%.2f%% (%d/%d)", c.Coverage(), c.Detected, c.Total)
	if len(c.Errors) > 0 {
		s += fmt.Sprintf(" [%d errored]", len(c.Errors))
	}
	return s
}

// rejectFault is the error of a fault a campaign rejects because it is not
// a fault of arch.
func rejectFault(f fault.Fault, arch snn.Arch) error {
	return fmt.Errorf("tester: %v is not a fault of a %v chip", f, arch)
}

// MeasureCoverage runs exhaustive (incremental) fault simulation of the test
// program over faults and reports coverage. Variation plays no role here —
// coverage is a property of the deterministic design, per Tables 5/6.
//
// The campaign is one faultsim.Golden.Detects call on the program's shared,
// memoized Golden (good-chip traces are simulated once per test program,
// no matter how many campaigns reuse the ATE), which collapses the faults
// into exact equivalence classes and fault-simulates one representative per
// class on the worker pool. A fault that is not a fault of the chip
// (fault.Fault.In) is never simulated: it is rejected into
// CoverageResult.Errors. The result is identical to the serial evaluation
// regardless of scheduling, and tallied in input order.
func (a *ATE) MeasureCoverage(faults []fault.Fault, values fault.Values) CoverageResult {
	//lint:ignore unchecked-error context.Background() never cancels, and cancellation is the only error MeasureCoverageContext returns
	res, _ := a.MeasureCoverageContext(context.Background(), faults, values)
	return res
}

// MeasureCoverageContext is MeasureCoverage with cooperative cancellation:
// workers stop claiming fault groups once ctx is cancelled, and a group's
// item scan stops between items. On cancellation it returns ctx.Err()
// together with the partial result — Total still counts every requested
// fault and Errors every rejected one, but only faults whose class reached
// a verdict before the cancellation appear as Detected or Undetected.
func (a *ATE) MeasureCoverageContext(ctx context.Context, faults []fault.Fault, values fault.Values) (CoverageResult, error) {
	res := CoverageResult{Total: len(faults)}
	if len(faults) == 0 {
		return res, ctx.Err()
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(coverageCampaignSeconds) }()
	ctx, span := obs.StartSpan(ctx, "fault-simulate")
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	defer span.End()
	golden, err := a.goldens.get()
	if err != nil {
		// Without goldens no fault can be evaluated; surface the build
		// failure once rather than crashing or erroring per fault.
		res.Errors = append(res.Errors, err)
		return res, ctx.Err()
	}
	verdicts, err := golden.Detects(ctx, values, faults)
	span.SetAttr("classes", strconv.Itoa(verdicts.Classes()))
	// A fault without a verdict is either outside the chip or in a class
	// the cancellation cut short.
	for i := range faults {
		switch det, ok := verdicts.Detected(i); {
		case det:
			res.Detected++
		case ok:
			res.Undetected = append(res.Undetected, faults[i])
		case !faults[i].In(a.ts.Arch):
			res.Errors = append(res.Errors, rejectFault(faults[i], a.ts.Arch))
		}
	}
	span.SetAttr("detected", strconv.Itoa(res.Detected))
	return res, err
}

// DetectsMatrix fault-simulates every fault on every item of the program
// as the chip is programmed, over the Golden coverage reads, and returns
// faultsim.Golden.DetectsMatrix's bitset rows: item i detects faults[f]
// when bit i%64 of rows[f][i/64] is set. Rows count any deviation whatever
// the ATE's tolerance, as Observe's do. A fault that is not a fault of the
// chip (fault.Fault.In) fails the call with an error naming it, and a
// cancelled ctx with ctx.Err(), before anything is simulated.
func (a *ATE) DetectsMatrix(ctx context.Context, faults []fault.Fault, values fault.Values) ([][]uint64, error) {
	for _, f := range faults {
		if !f.In(a.ts.Arch) {
			return nil, rejectFault(f, a.ts.Arch)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	golden, err := a.goldens.get()
	if err != nil {
		return nil, err
	}
	return golden.DetectsMatrix(ctx, values, faults)
}

// MeasureOverkill simulates nChips good chips under weight variation and
// returns the percentage that fail the test program (the paper uses 300
// chips). seed fixes the population; chips are simulated in parallel with
// order-independent per-chip seeds, so results are reproducible regardless
// of scheduling.
func (a *ATE) MeasureOverkill(nChips int, vary variation.Model, seed uint64) float64 {
	return a.reliableChips(identityIndices(max(nChips, 0)), nil, vary, seed).FailRate()
}

// MeasureEscape simulates one faulty chip per fault in faults, each with its
// own variation sample, and returns the percentage that pass the test
// program (test escape). values parameterizes the injected faults; seed
// fixes the population, die i drawing its variation from chip i's seed. A
// fault that is not a fault of the chip (fault.Fault.In) is rejected
// before anything is simulated: it adds one error, in input order, and its
// die counts in neither the numerator nor the denominator.
func (a *ATE) MeasureEscape(faults []fault.Fault, values fault.Values, vary variation.Model, seed uint64) (float64, []error) {
	var errs []error
	dies := make([]int, 0, len(faults))
	for i := range faults {
		if !faults[i].In(a.ts.Arch) {
			errs = append(errs, rejectFault(faults[i], a.ts.Arch))
			continue
		}
		dies = append(dies, i)
	}
	return a.reliableChips(dies, func(i int) *snn.Modifiers {
		return faults[i].Modifiers(values)
	}, vary, seed).PassRate(), errs
}

// reliableChips tests the chips listed in idx as the escape and overkill
// campaigns do: chip i carries mods(i) (a nil mods tests defect-free dies)
// through the reliable session under the zero retest policy, on a die
// whose variation is drawn from stats.NewRNG(chipSeed(seed, i)). The seed
// derives from the chip's index, never from the worker that runs it.
func (a *ATE) reliableChips(idx []int, mods func(i int) *snn.Modifiers, vary variation.Model, seed uint64) SessionStats {
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(chipsCampaignSeconds) }()
	return a.measureChips(context.Background(), idx, func(d *die, i, _ int) (SessionReport, error) {
		var m *snn.Modifiers
		if mods != nil {
			m = mods(i)
		}
		s := chipSeed(seed, i)
		d.reset(vary, stats.NewRNG(s), m)
		return a.session(d, m, unreliable.Reliable(), RetestPolicy{}, s), nil
	})
}

// identityIndices returns [0, n).
func identityIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// chipSeed derives chip i's RNG seed from a campaign seed — SplitMix-style
// decorrelation, independent of which worker runs the chip.
func chipSeed(seed uint64, i int) uint64 {
	return (seed + 0x9E3779B97F4A7C15*uint64(i+1)) ^ 0xD1B54A32D192ED03
}

// SampleFaults returns a deterministic stratified sample of at most max
// faults drawn from the universe of each listed kind, proportionally to
// universe sizes. When the budget fits (max >= number of non-empty kinds)
// every non-empty kind contributes at least one fault; with a smaller
// budget the kinds are served one fault each in listed order until the
// budget runs out. With max <= 0 or max >= total it returns the full
// concatenated universes.
//
// A bounded sample builds no universe: each partly sampled kind of k
// faults costs k RNG draws (stats.RNG.Choose, the first k entries of a
// random permutation of the universe, in draw order), and the kept indices
// are mapped to faults through fault.UniverseAt. Its cost follows the
// sample, not the universe.
func SampleFaults(arch snn.Arch, kinds []fault.Kind, max int, seed uint64) []fault.Fault {
	sizes := make([]int, len(kinds))
	total := 0
	for i, k := range kinds {
		sizes[i] = fault.UniverseSize(arch, k)
		total += sizes[i]
	}
	want, n := sizes, total
	if max > 0 && max < total {
		want, n = sampleAllocation(sizes, max, total), max
	}
	rng := stats.NewRNG(seed)
	out := make([]fault.Fault, 0, n)
	for i, k := range kinds {
		switch {
		case want[i] == 0:
		case want[i] >= sizes[i]:
			out = append(out, fault.Universe(arch, k)...)
		default:
			for _, idx := range rng.Choose(sizes[i], want[i]) {
				f, _ := fault.UniverseAt(arch, k, idx)
				out = append(out, f)
			}
		}
	}
	return out
}

// SampleSize is the length of every SampleFaults(arch, kinds, max, seed)
// sample, whatever the seed, worked out without drawing one: max when it
// is positive and below the kinds' total universe size, else that total.
func SampleSize(arch snn.Arch, kinds []fault.Kind, max int) int {
	total := 0
	for _, k := range kinds {
		total += fault.UniverseSize(arch, k)
	}
	if max > 0 && max < total {
		return max
	}
	return total
}

// ClusterDefect is the clustered-defect convention of a sampled die
// population, shared by every campaign that injects defect clusters: die i
// carries the size consecutive faults of sample starting at i*size,
// wrapping around. It returns those faults and their merged modifiers; a
// die with size 0, or drawn from an empty sample, is defect-free (nil, nil).
func ClusterDefect(sample []fault.Fault, values fault.Values, i, size int) ([]fault.Fault, *snn.Modifiers) {
	if size <= 0 || len(sample) == 0 {
		return nil, nil
	}
	faults := make([]fault.Fault, size)
	mods := make([]*snn.Modifiers, size)
	for c := range faults {
		faults[c] = sample[(i*size+c)%len(sample)]
		mods[c] = faults[c].Modifiers(values)
	}
	return faults, snn.MergeModifiers(mods...)
}

// sampleAllocation splits a budget of max faults across kind universes of
// the given sizes, proportionally, with every non-empty kind getting at
// least one when the budget allows. Unlike naive per-kind rounding, the
// allocations are reconciled so they always sum to exactly min(max, total):
// the floor-and-bump pass can both overshoot (the at-least-one bumps
// exceed the budget) and undershoot (flooring loses up to one fault per
// kind); overshoot is trimmed from the largest allocations and undershoot
// topped up on the kinds with the most unsampled faults, both
// deterministically in listed-kind order on ties.
func sampleAllocation(sizes []int, max, total int) []int {
	want := make([]int, len(sizes))
	nonEmpty := 0
	for _, n := range sizes {
		if n > 0 {
			nonEmpty++
		}
	}
	if max < nonEmpty {
		// The at-least-one guarantee cannot fit: serve the first max
		// non-empty kinds one fault each.
		left := max
		for i, n := range sizes {
			if n > 0 && left > 0 {
				want[i] = 1
				left--
			}
		}
		return want
	}
	assigned := 0
	for i, n := range sizes {
		if n == 0 {
			continue
		}
		w := max * n / total
		if w < 1 {
			w = 1
		}
		if w > n {
			w = n
		}
		want[i] = w
		assigned += w
	}
	for assigned > max {
		// Trim the largest allocation that can spare a fault.
		best := -1
		for i, w := range want {
			if w > 1 && (best < 0 || w > want[best]) {
				best = i
			}
		}
		want[best]--
		assigned--
	}
	for assigned < max {
		// Top up the kind with the most unsampled faults. max < total
		// guarantees some kind has spare capacity.
		best := -1
		for i, w := range want {
			if w < sizes[i] && (best < 0 || sizes[i]-w > sizes[best]-want[best]) {
				best = i
			}
		}
		want[best]++
		assigned++
	}
	return want
}
