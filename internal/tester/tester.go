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
	"math"
	"slices"
	"strconv"
	"sync"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/pool"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
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
	// groups partitions the items by the input sum they drive into layer 1
	// of a die, built on the first die and shared by tolerance clones.
	groups *itemGroups
	// tolerance is the pass band on each output spike count (see
	// CloneWithTolerance). 0 means exact comparison.
	tolerance int
}

// goldenShare memoizes one faultsim.Golden of its test set behind an ATE
// and all of its tolerance clones. A build panic (e.g. a pattern that does
// not fit the input layer) is captured once and surfaced as an error by
// every campaign instead of crashing the caller.
type goldenShare struct {
	ts   *pattern.TestSet
	once sync.Once
	g    *faultsim.Golden
	err  error
}

// get returns the memoized Golden, building it on first use.
func (s *goldenShare) get() (*faultsim.Golden, error) {
	s.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				s.err = fmt.Errorf("tester: building golden traces: %v", p)
			}
		}()
		s.g = faultsim.NewGolden(s.ts)
	})
	return s.g, s.err
}

// itemGroups partitions a test program's items into groups whose members
// drive the same input sum into layer 1 of any one die: their patterns are
// equal and their programmed boundary-0 weights are bit-identical. A die
// then adds the rows of a group's spiking inputs once and reuses the sum
// for every member (snn.InputSum). Hold plays no part: a held item's input
// at each timestep is its pattern, as a single-shot item's is at t = 0.
type itemGroups struct {
	nets  []*snn.Network // programmed configuration per config index
	items []pattern.Item
	once  sync.Once
	of    []int // group of each item
	n     int   // number of groups
}

// get returns the group of each item and the number of groups, grouping
// the items on first use. Each item is compared only with the first member
// of each earlier group.
func (g *itemGroups) get() ([]int, int) {
	g.once.Do(func() {
		g.of = make([]int, len(g.items))
		var reps []int // first member of each group
		for i, it := range g.items {
			k := slices.IndexFunc(reps, func(r int) bool { return g.sameInput(g.items[r], it) })
			if k < 0 {
				k = len(reps)
				reps = append(reps, i)
			}
			g.of[i] = k
		}
		g.n = len(reps)
	})
	return g.of, g.n
}

// sameInput reports whether items a and b share a group: equal patterns
// over bit-identical boundary-0 weights. One network, or two networks on
// one backing array, is equal without a comparison, and the comparison
// stops at the first word that differs.
func (g *itemGroups) sameInput(a, b pattern.Item) bool {
	if !slices.Equal(a.Pattern, b.Pattern) {
		return false
	}
	wa, wb := g.nets[a.ConfigIndex].W[0], g.nets[b.ConfigIndex].W[0]
	return &wa[0] == &wb[0] || slices.EqualFunc(wa, wb, func(u, v float64) bool {
		return math.Float64bits(u) == math.Float64bits(v)
	})
}

// CloneWithTolerance returns a copy of the ATE with its own pass band,
// sharing the (immutable) test set, configurations, item groups and the
// memoized fault-simulation Goldens (traces and downstream memo). A chip passes an
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
		groups: &itemGroups{nets: programmed.Configs, items: ts.Items}}
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

// Golden returns the expected output of item i.
func (a *ATE) Golden(i int) snn.Result { return a.goldenResult(i) }

// goldenResult returns the expected output of item i, read from the
// expected-response Golden, which is built on first use.
func (a *ATE) goldenResult(i int) snn.Result {
	g, err := a.expected.get()
	if err != nil {
		// The lazy build fails when an item cannot be simulated (a pattern
		// that does not fit the input layer, say). Coverage reports the
		// build failure as its error; chip campaigns re-panic it on their
		// caller.
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

// RunChip applies the full test program to one chip under test.
//
// mods injects the die's physical defect (nil for a defect-free die). vary
// models the chip's weight variation: the die's per-synapse deviation tensor
// is sampled once (each memristive device carries a fixed programming
// offset) and shifts every configuration programmed into it — the paper's
// "modify each weight of the CUT by adding a random variable" (Section 5.3).
// rng drives that sampling and must be non-nil when vary is non-zero.
//
// Testing stops at the first failing item (production ATE behaviour).
func (a *ATE) RunChip(mods *snn.Modifiers, vary variation.Model, rng *stats.RNG) Verdict {
	if !vary.Zero() && rng == nil {
		//lint:ignore no-panic documented API contract on RunChip: non-zero variation requires an RNG
		panic("tester: variation requires an RNG")
	}
	return a.runChip(a.newDie().reset(vary, rng), mods)
}

// runChip applies the full test program to die d carrying mods, stopping
// at the first failing item.
func (a *ATE) runChip(d *die, mods *snn.Modifiers) Verdict {
	v := Verdict{Passed: true, FailedItem: -1}
	for i := range a.ts.Items {
		res := d.run(i, mods)
		v.ItemsRun++
		if !a.matches(res, a.goldenResult(i)) {
			v.Passed = false
			v.FailedItem = i
			return v
		}
	}
	return v
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
		fails[i] = !d.run(i, mods).Equal(a.goldenResult(i))
	}
	return fails
}

// die is one chip under test as the ATE programs it. Items are applied in
// order; a configuration is (re)programmed when first encountered, then
// reused for consecutive items sharing it.
//
// A die is a view: it keeps the ATE's shared configurations, its error
// tensor and one simulator. Programming a configuration only rebinds the
// simulator to it, read through the tensor, so the forward pass adds each
// device's offset where it reads a weight (snn.Simulator.Bind). No die
// writes a weight, and a die without variation takes the same path with a
// nil offset. A die also keeps one layer-1 input sum per item group
// (itemGroups), filled by the group's first item it runs. A pool slot
// tests chip after chip on one die, resetting it between chips.
type die struct {
	a      *ATE
	group  []int                  // group of each item
	sums   []snn.InputSum         // layer-1 input sum of each group
	tensor *variation.ErrorTensor // the chip's weight deviation, or nil
	cfg    int                    // configuration currently programmed, or -1
	sim    *snn.Simulator
}

// newDie returns a blank die without variation, grouping the ATE's items
// if no die has yet.
func (a *ATE) newDie() *die {
	group, n := a.groups.get()
	return &die{a: a, group: group, sums: make([]snn.InputSum, n), cfg: -1}
}

// reset readies the die for its next chip: it draws the chip's variation
// from rng into the die's tensor (variation.Model.SampleInto, so the draws
// are a fresh tensor's) and forgets the previous chip's configuration and
// input sums. It returns d.
func (d *die) reset(vary variation.Model, rng *stats.RNG) *die {
	d.tensor = vary.SampleInto(d.tensor, d.a.ts.Arch, rng)
	d.cfg = -1
	for g := range d.sums {
		d.sums[g].Reset()
	}
	return d
}

// run applies item i to the die carrying mods.
func (d *die) run(i int, mods *snn.Modifiers) snn.Result {
	it := d.a.ts.Items[i]
	return d.program(it.ConfigIndex).RunInput(&d.sums[d.group[i]], it.Pattern, it.Timesteps, it.Mode(), mods)
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
	var errs [][]float64
	if d.tensor != nil {
		errs = d.tensor.E
	}
	if err := d.sim.Bind(net, errs); err != nil {
		// Unreachable for a valid test set: every configuration has the
		// test set's architecture, which the tensor was sampled for.
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
// Faults are first collapsed into exact equivalence classes over one
// shared, memoized faultsim.Golden (good-chip traces are simulated once per
// test program, no matter how many workers run or how many campaigns reuse
// the ATE). A fault that is not a fault of the chip (fault.Fault.In) is
// rejected into CoverageResult.Errors before anything is simulated. The
// other class representatives are evaluated in parallel, each worker with
// a cheap evaluator of its own, and each verdict is broadcast to its
// class; downstream memo hits cross workers through the Golden's sharded
// memo. The result is identical to the serial evaluation regardless of
// scheduling. A panic while simulating an admitted fault is a simulator
// bug and re-panics on the caller's goroutine.
func (a *ATE) MeasureCoverage(faults []fault.Fault, values fault.Values) CoverageResult {
	//lint:ignore unchecked-error context.Background() never cancels, and cancellation is the only error MeasureCoverageContext returns
	res, _ := a.MeasureCoverageContext(context.Background(), faults, values)
	return res
}

// MeasureCoverageContext is MeasureCoverage with cooperative cancellation:
// workers stop claiming faults once ctx is cancelled, and the incremental
// engines abort their item scans between items. On cancellation it returns
// ctx.Err() together with the partial result — Total still counts every
// requested fault and Errors every rejected one, but only faults whose
// class representative was evaluated before the cancellation appear as
// Detected or Undetected.
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
	golden, gerr := a.goldens.get()
	if gerr != nil {
		// Without goldens no fault can be evaluated; surface the build
		// failure once rather than crashing or erroring per fault.
		res.Errors = append(res.Errors, gerr)
		return res, ctx.Err()
	}
	// Collapse first: faults of one exact equivalence class get identical
	// verdicts, so the pool evaluates one representative per class and the
	// verdicts are broadcast to the members below.
	cls := golden.Collapse(faults)
	span.SetAttr("classes", strconv.Itoa(len(cls.Reps)))
	// A fault that is not a fault of the chip never joins a class
	// (collapse.go), so it represents itself: checking the representatives
	// rejects every such fault before anything is simulated.
	arch := a.ts.Arch
	admitted, rejected := cls.Reps, 0
	for _, i := range cls.Reps {
		if !faults[i].In(arch) {
			rejected++
		}
	}
	if rejected > 0 {
		admitted = make([]int32, 0, len(cls.Reps)-rejected)
		for _, i := range cls.Reps {
			if faults[i].In(arch) {
				admitted = append(admitted, i)
			}
		}
	}
	reps := faults // when nothing collapses and nothing is rejected, the faults represent themselves
	if len(admitted) < len(faults) {
		reps = make([]fault.Fault, len(admitted))
		for k, i := range admitted {
			reps[k] = faults[i]
		}
	}
	// The pool claims representatives in packed groups (same kind, same
	// deviated layer, ≤64 per group): each group runs one bit-parallel
	// downstream pass through the packed kernel.
	groups := faultsim.PackGroups(reps)
	evals := make([]*faultsim.Evaluator, pool.Workers(len(groups)))
	verdicts, done := pool.Run(ctx, len(groups), timed(func(gi, w int) []bool {
		idx := groups[gi]
		sub := make([]fault.Fault, len(idx))
		for k, i := range idx {
			sub[k] = reps[i]
		}
		if evals[w] == nil {
			evals[w] = golden.NewEvaluator(values)
		}
		det, err := evals[w].DetectsBatch(ctx, sub)
		if err != nil {
			return nil // cancelled mid-group: none of this group's verdicts count
		}
		return det
	}))
	// Scatter the group verdicts to their classes.
	detected := make([]bool, len(cls.Reps))
	evaluated := make([]bool, len(cls.Reps))
	for gi, det := range verdicts {
		if !done[gi] || det == nil {
			continue // never claimed, or aborted mid-scan, because of cancellation
		}
		for k, r := range groups[gi] {
			c := cls.Of[admitted[r]]
			evaluated[c] = true
			detected[c] = det[k]
		}
	}
	// Broadcast each class's outcome to its members in input order, so
	// Detected, Undetected and Errors aggregate as if every fault had been
	// evaluated on its own.
	broadcast := 0
	for i, c := range cls.Of {
		switch {
		case evaluated[c]:
			if int(cls.Reps[c]) != i {
				broadcast++
			}
			if detected[c] {
				res.Detected++
			} else {
				res.Undetected = append(res.Undetected, faults[i])
			}
		case rejected > 0 && !faults[i].In(arch):
			res.Errors = append(res.Errors, rejectFault(faults[i], arch))
		}
	}
	faultsim.CountBroadcast(broadcast)
	span.SetAttr("detected", strconv.Itoa(res.Detected))
	return res, ctx.Err()
}

// DetectsMatrix fault-simulates every fault on every item of the program
// as the chip is programmed, over the Golden coverage reads, and returns
// faultsim.Evaluator.DetectsMatrix's bitset rows: item i detects faults[f]
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
	return golden.NewEvaluator(values).DetectsMatrix(ctx, faults)
}

// MeasureOverkill simulates nChips good chips under weight variation and
// returns the percentage that fail the test program (the paper uses 300
// chips). seed fixes the population; chips are simulated in parallel with
// order-independent per-chip seeds, so results are reproducible regardless
// of scheduling.
func (a *ATE) MeasureOverkill(nChips int, vary variation.Model, seed uint64) float64 {
	return a.countChips(identityIndices(max(nChips, 0)), nil, vary, seed, false)
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
	return a.countChips(dies, func(i int) *snn.Modifiers {
		return faults[i].Modifiers(values)
	}, vary, seed, true), errs
}

// countChips tests the dies listed in idx on the worker pool and returns
// the percentage whose verdict's Passed equals passed (0 for no dies). Die
// i carries mods(i) (a nil mods tests defect-free dies) and a variation
// tensor drawn from chip i's own seed, which derives from its index, never
// from the worker that runs it: RunChip(mods(i), vary,
// stats.NewRNG(chipSeed(seed, i))). Each pool slot tests its chips on one
// die (slotDie), so a campaign allocates a simulator, a tensor and input
// sums per slot, not per chip.
func (a *ATE) countChips(idx []int, mods func(i int) *snn.Modifiers, vary variation.Model, seed uint64, passed bool) float64 {
	if len(idx) == 0 {
		return 0
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(chipsCampaignSeconds) }()
	dies := make([]*die, pool.Workers(len(idx)))
	hits, _ := pool.Run(context.Background(), len(idx), timed(func(k, w int) bool {
		i := idx[k]
		var m *snn.Modifiers
		if mods != nil {
			m = mods(i)
		}
		d := a.slotDie(dies, w).reset(vary, stats.NewRNG(chipSeed(seed, i)))
		return a.runChip(d, m).Passed == passed
	}))
	hit := 0
	for _, h := range hits {
		if h {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(idx))
}

// slotDie returns pool slot w's die from dies, building it for the slot's
// first chip. A chip's session ends before its slot claims the next one, so
// the slot's chips take turns on the die.
func (a *ATE) slotDie(dies []*die, w int) *die {
	if dies[w] == nil {
		dies[w] = a.newDie()
	}
	return dies[w]
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

// timed wraps a campaign task so that each run of it is observed into
// the tester's pool instruments: its latency into tester_pool_item_seconds
// and one count into tester_pool_evaluations_total.
func timed[T any](fn func(i, w int) T) func(i, w int) T {
	ensureObs()
	return func(i, w int) T {
		t := obs.StartTimer()
		v := fn(i, w)
		t.ObserveElapsed(poolItemSeconds)
		poolEvaluations.Inc()
		return v
	}
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
