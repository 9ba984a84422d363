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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/variation"
)

// ATE holds a test program with precomputed golden responses.
//
// Golden responses are simulated from the design *as programmed*: the same
// configuration transform (typically quantization) that the chip's weight
// memory applies is applied before deriving the expected outputs, exactly
// like a production flow that goldens against the post-quantization model.
type ATE struct {
	ts        *pattern.TestSet
	transform faultsim.ConfigTransform
	nets      []*snn.Network // transformed configuration per config index
	// golden holds eagerly simulated per-item responses when the golden and
	// chip transforms differ (NewSplit). ATEs built with New leave it nil
	// and derive golden responses lazily from the shared fault-simulation
	// Golden, whose good-chip traces double as the expected outputs — one
	// simulation of each item serves both roles.
	golden []snn.Result
	// goldens memoizes the fault-simulation Golden (good-chip traces plus
	// the downstream memo). It is held by pointer so tolerance clones share
	// it: one golden build and one warm memo serve every campaign over this
	// test program, which is the neurotestd artifact-cache access pattern.
	goldens *goldenShare
	// tolerance is the pass band on each output spike count (see
	// WithTolerance). 0 means exact comparison.
	tolerance int
}

// goldenShare memoizes one faultsim.Golden behind an ATE and all of its
// tolerance clones. A build panic (e.g. a transform rejecting a
// configuration) is captured once and surfaced as an error by every
// campaign instead of crashing the caller.
type goldenShare struct {
	once sync.Once
	g    *faultsim.Golden
	err  error
}

// faultGolden returns the memoized shared Golden, building it on first use.
func (a *ATE) faultGolden() (*faultsim.Golden, error) {
	a.goldens.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				a.goldens.err = fmt.Errorf("tester: building golden traces: %v", p)
			}
		}()
		a.goldens.g = faultsim.NewGolden(a.ts, a.transform)
	})
	return a.goldens.g, a.goldens.err
}

// WithTolerance sets the per-output spike-count pass band and returns the
// ATE. A chip passes an item when every output count is within ±n of the
// golden count. Negative tolerances are a configuration error.
//
// The deterministic method uses n = 0 — its configurations engineer exact
// outputs. Statistical baselines decide pass/fail from firing-rate
// estimates whose resolution is bounded by their repetition budget, so
// their production testers accept counts within the estimation resolution;
// n = 1 models that band.
func (a *ATE) WithTolerance(n int) (*ATE, error) {
	if n < 0 {
		return nil, fmt.Errorf("tester: negative tolerance %d", n)
	}
	a.tolerance = n
	return a, nil
}

// CloneWithTolerance returns a copy of the ATE with its own pass band,
// sharing the (immutable) test set, configurations, golden responses and
// the memoized fault-simulation Golden (traces and downstream memo).
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

// New builds an ATE for ts. transform may be nil (ideal weights). Golden
// responses and chips-under-test share the transform, the flow of a shop
// that goldens against the post-quantization model.
//
// New itself simulates nothing: golden responses are derived on first use
// from the same shared fault-simulation Golden the coverage campaigns read,
// so the good-chip traces of a test program are simulated exactly once no
// matter which campaign touches the ATE first.
func New(ts *pattern.TestSet, transform faultsim.ConfigTransform) *ATE {
	a := &ATE{ts: ts, transform: transform, goldens: &goldenShare{}}
	a.nets = make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		a.nets[i] = cfg
		if transform != nil {
			a.nets[i] = transform(cfg)
		}
	}
	return a
}

// NewSplit builds an ATE whose golden responses come from goldenTransform'd
// configurations while chips under test are programmed through
// chipTransform. Production flows that golden against the *ideal* model but
// ship quantized silicon use NewSplit(ts, nil, quantize): any behavioural
// gap the quantizer opens then shows up as overkill, which is exactly the
// effect the paper's "overkill with quantization" rows measure.
func NewSplit(ts *pattern.TestSet, goldenTransform, chipTransform faultsim.ConfigTransform) *ATE {
	a := &ATE{ts: ts, transform: chipTransform, goldens: &goldenShare{}}
	a.nets = make([]*snn.Network, len(ts.Configs))
	golden := make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		a.nets[i] = cfg
		golden[i] = cfg
		if chipTransform != nil {
			a.nets[i] = chipTransform(cfg)
		}
		if goldenTransform != nil {
			golden[i] = goldenTransform(cfg)
		}
	}
	sims := make([]*snn.Simulator, len(golden))
	for i, n := range golden {
		sims[i] = snn.NewSimulator(n)
	}
	for _, it := range ts.Items {
		res := sims[it.ConfigIndex].Run(it.Pattern, it.Timesteps, it.Mode(), nil)
		a.golden = append(a.golden, res)
	}
	return a
}

// TestSet returns the underlying test program.
func (a *ATE) TestSet() *pattern.TestSet { return a.ts }

// Golden returns the expected output of item i.
func (a *ATE) Golden(i int) snn.Result { return a.goldenResult(i) }

// goldenResult returns the expected output of item i. NewSplit ATEs read
// their eagerly simulated responses; New ATEs derive the response from the
// shared fault-simulation Golden, built on first use.
func (a *ATE) goldenResult(i int) snn.Result {
	if a.golden != nil {
		return a.golden[i]
	}
	g, err := a.faultGolden()
	if err != nil {
		// Unreachable in practice: a nil-golden ATE's transform already ran
		// over every configuration in New, so the lazy build cannot newly
		// fail. Campaign pools recover this into a WorkerError.
		//lint:ignore no-panic golden responses are a hard precondition of every campaign; pools recover
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
	d := a.newDie(vary.SampleError(a.ts.Arch, rng))
	v := Verdict{Passed: true, FailedItem: -1}
	for i, it := range a.ts.Items {
		res := d.program(it.ConfigIndex).Run(it.Pattern, it.Timesteps, it.Mode(), mods)
		v.ItemsRun++
		if !a.matches(res, a.goldenResult(i)) {
			v.Passed = false
			v.FailedItem = i
			return v
		}
	}
	return v
}

// die is one chip under test as the ATE programs it. Items are applied in
// order; a configuration is (re)programmed when first encountered, then
// reused for consecutive items sharing it.
//
// A die without variation runs the ATE's shared configurations directly. A
// die with an error tensor owns one network, allocated at its first
// programming: every configuration is written into it in place as
// config + E, so a die costs one network however many configurations its
// test program holds, and the shared configurations are only ever read.
type die struct {
	nets []*snn.Network // the ATE's programmed configurations, read-only
	errs *variation.ErrorTensor
	cfg  int // configuration currently programmed, or -1
	sim  *snn.Simulator
}

// newDie returns a blank die whose synapses deviate by errs (nil for none).
func (a *ATE) newDie(errs *variation.ErrorTensor) *die {
	return &die{nets: a.nets, errs: errs, cfg: -1}
}

// program returns a simulator of configuration ci as programmed into the
// die.
func (d *die) program(ci int) *snn.Simulator {
	if ci == d.cfg {
		return d.sim
	}
	d.cfg = ci
	switch {
	case d.errs == nil:
		d.sim = snn.NewSimulator(d.nets[ci])
	case d.sim == nil:
		d.sim = snn.NewSimulator(d.errs.ApplyTo(d.nets[ci]))
	default:
		d.errs.ApplyInto(d.sim.Network(), d.nets[ci])
	}
	return d.sim
}

// WorkerError is a structured error recording a recovered panic from a
// parallel campaign worker, with enough context to reproduce the failing
// evaluation. A panicking worker used to take down the whole test process;
// now it surfaces here instead.
type WorkerError struct {
	// Op names the campaign: "coverage", "overkill", "escape" or "session".
	Op string
	// Worker is the pool slot that hit the panic.
	Worker int
	// Chip is the chip index of population campaigns, or -1.
	Chip int
	// Fault is the fault under evaluation, when the campaign has one.
	Fault *fault.Fault
	// Panic is the recovered value.
	Panic any
}

// Error renders the failure with its fault/chip context.
func (e *WorkerError) Error() string {
	site := ""
	if e.Fault != nil {
		site = fmt.Sprintf(" fault %v", *e.Fault)
	}
	if e.Chip >= 0 {
		site += fmt.Sprintf(" chip %d", e.Chip)
	}
	return fmt.Sprintf("tester: %s worker %d panicked%s: %v", e.Op, e.Worker, site, e.Panic)
}

// CoverageResult summarises a fault-coverage campaign.
type CoverageResult struct {
	Total      int
	Detected   int
	Undetected []fault.Fault
	// Errors holds structured worker failures (recovered panics, typically
	// from malformed faults outside the architecture's universe). Errored
	// faults count neither as detected nor undetected.
	Errors []error
}

// Coverage returns the fault coverage percentage.
func (c CoverageResult) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// MergeCoverage folds K partial coverage results over disjoint fault shards
// into the whole-campaign result. All tallies are integers, so merging K
// disjoint shards equals the whole-universe campaign exactly — Coverage()
// is bit-identical, not approximately equal — which is what lets the
// cluster coordinator re-assemble sharded campaigns without float drift.
// Undetected faults and errors concatenate in argument order; callers that
// need the single-node ordering (the coordinator) pass shards sorted by
// their faults' global universe indices.
func MergeCoverage(parts ...CoverageResult) CoverageResult {
	var out CoverageResult
	for _, p := range parts {
		out.Total += p.Total
		out.Detected += p.Detected
		out.Undetected = append(out.Undetected, p.Undetected...)
		out.Errors = append(out.Errors, p.Errors...)
	}
	return out
}

// String renders like the paper's tables, e.g. "100.00%".
func (c CoverageResult) String() string {
	s := fmt.Sprintf("%.2f%% (%d/%d)", c.Coverage(), c.Detected, c.Total)
	if len(c.Errors) > 0 {
		s += fmt.Sprintf(" [%d errored]", len(c.Errors))
	}
	return s
}

// MeasureCoverage runs exhaustive (incremental) fault simulation of the test
// program over faults and reports coverage. Variation plays no role here —
// coverage is a property of the deterministic design, per Tables 5/6.
//
// Faults are evaluated in parallel over one shared, memoized
// faultsim.Golden (good-chip traces are simulated once per test program, no
// matter how many workers run or how many campaigns reuse the ATE) with a
// cheap per-worker evaluator; downstream memo hits cross workers through
// the Golden's sharded memo. A worker panic (e.g. a fault site outside the
// architecture) is recovered into CoverageResult.Errors instead of crashing
// the process — discarding only that worker's scratch evaluator, never the
// goldens — and the result is identical to the serial evaluation regardless
// of scheduling.
func (a *ATE) MeasureCoverage(faults []fault.Fault, values fault.Values) CoverageResult {
	//lint:ignore unchecked-error context.Background() never cancels, and cancellation is the only error MeasureCoverageContext returns
	res, _ := a.MeasureCoverageContext(context.Background(), faults, values)
	return res
}

// MeasureCoverageContext is MeasureCoverage with cooperative cancellation:
// workers stop claiming faults once ctx is cancelled, and the incremental
// engines abort their item scans between items. On cancellation it returns
// ctx.Err() together with the partial result — Total still counts every
// requested fault, but only faults evaluated before the cancellation appear
// as Detected, Undetected or Errors.
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
	golden, gerr := a.faultGolden()
	if gerr != nil {
		// Without goldens no fault can be evaluated; surface the build
		// failure once rather than crashing or erroring per fault.
		res.Errors = append(res.Errors, gerr)
		return res, ctx.Err()
	}
	// The pool claims faults in packed groups (same kind, same deviated
	// layer, ≤64 per group): each group runs one bit-parallel downstream
	// pass through the packed kernel. A group that panics is re-run through
	// the same kernel as size-1 groups, so only the offending fault lands in
	// Errors and the rest of its group still gets verdicts.
	groups := faultsim.PackGroups(faults)
	evals := make([]*faultsim.Evaluator, poolWorkers(len(groups)))
	type groupVerdict struct {
		detected  []bool  // aligned with groups[gi]
		evaluated []bool  // verdict valid (not lost to cancellation)
		errs      []error // recovered per-fault worker errors
	}
	verdicts, done := runWorkersCtx(ctx, len(groups), func(gi, w int) (v groupVerdict) {
		idx := groups[gi]
		sub := make([]fault.Fault, len(idx))
		for k, i := range idx {
			sub[k] = faults[i]
		}
		batch := func() (out []bool, err error, ok bool) {
			defer func() {
				if p := recover(); p != nil {
					// Only the worker's scratch can be mid-mutation: discard
					// the evaluator and isolate the culprit in size-1 groups.
					evals[w] = nil
					ok = false
				}
			}()
			if evals[w] == nil {
				evals[w] = golden.NewEvaluator(values)
			}
			out, err = evals[w].DetectsBatch(ctx, sub)
			return out, err, true
		}
		if out, err, ok := batch(); ok {
			if err != nil {
				// Cancelled mid-group: none of this group's verdicts count.
				return v
			}
			v.detected = out
			v.evaluated = make([]bool, len(idx))
			for k := range v.evaluated {
				v.evaluated[k] = true
			}
			return v
		}
		v.detected = make([]bool, len(idx))
		v.evaluated = make([]bool, len(idx))
		v.errs = make([]error, len(idx))
		for k := range sub {
			func() {
				defer func() {
					if p := recover(); p != nil {
						f := sub[k]
						v.errs[k] = &WorkerError{Op: "coverage", Worker: w, Chip: -1, Fault: &f, Panic: p}
						evals[w] = nil
					}
				}()
				if evals[w] == nil {
					evals[w] = golden.NewEvaluator(values)
				}
				det, err := evals[w].DetectsBatch(ctx, sub[k:k+1])
				if err != nil {
					return // cancelled: leave evaluated[k] false
				}
				v.detected[k] = det[0]
				v.evaluated[k] = true
			}()
		}
		return v
	})
	// Scatter the group verdicts back to global fault order, so Detected,
	// Undetected and Errors aggregate in input order.
	detected := make([]bool, len(faults))
	evaluated := make([]bool, len(faults))
	errAt := make([]error, len(faults))
	for gi, v := range verdicts {
		if !done[gi] {
			continue // group never claimed before cancellation
		}
		for k, i := range groups[gi] {
			if v.errs != nil && v.errs[k] != nil {
				errAt[i] = v.errs[k]
				continue
			}
			if v.evaluated != nil && v.evaluated[k] {
				evaluated[i] = true
				detected[i] = v.detected[k]
			}
		}
	}
	for i := range faults {
		switch {
		case errAt[i] != nil:
			res.Errors = append(res.Errors, errAt[i])
		case !evaluated[i]:
			// Never evaluated (or aborted mid-scan) because of cancellation.
		case detected[i]:
			res.Detected++
		default:
			res.Undetected = append(res.Undetected, faults[i])
		}
	}
	span.SetAttr("detected", strconv.Itoa(res.Detected))
	return res, ctx.Err()
}

// MeasureOverkill simulates nChips good chips under weight variation and
// returns the percentage that fail the test program (the paper uses 300
// chips). seed fixes the population; chips are simulated in parallel with
// order-independent per-chip seeds, so results are reproducible regardless
// of scheduling. A worker panic is re-raised synchronously on the caller's
// goroutine with fault context; OverkillCampaign returns it as an error
// instead.
func (a *ATE) MeasureOverkill(nChips int, vary variation.Model, seed uint64) float64 {
	pct, errs := a.OverkillCampaign(nChips, vary, seed)
	if len(errs) > 0 {
		//lint:ignore no-panic documented re-raise convenience; OverkillCampaign returns the errors instead
		panic(errs[0])
	}
	return pct
}

// OverkillCampaign is MeasureOverkill with recovered worker panics surfaced
// as structured errors; errored chips are excluded from the percentage's
// denominator.
func (a *ATE) OverkillCampaign(nChips int, vary variation.Model, seed uint64) (float64, []error) {
	return a.countChips("overkill", nChips, func(i int, rng *stats.RNG) bool {
		return !a.RunChip(nil, vary, rng).Passed
	}, seed)
}

// MeasureEscape simulates one faulty chip per fault in faults, each with its
// own variation sample, and returns the percentage that pass the test
// program (test escape). values parameterizes the injected faults; seed
// fixes the population. Worker panics re-raise synchronously; use
// EscapeCampaign to receive them as errors.
func (a *ATE) MeasureEscape(faults []fault.Fault, values fault.Values, vary variation.Model, seed uint64) float64 {
	pct, errs := a.EscapeCampaign(faults, values, vary, seed)
	if len(errs) > 0 {
		//lint:ignore no-panic documented re-raise convenience; EscapeCampaign returns the errors instead
		panic(errs[0])
	}
	return pct
}

// EscapeCampaign is MeasureEscape with recovered worker panics surfaced as
// structured errors; errored chips are excluded from the percentage's
// denominator.
func (a *ATE) EscapeCampaign(faults []fault.Fault, values fault.Values, vary variation.Model, seed uint64) (float64, []error) {
	return a.countChips("escape", len(faults), func(i int, rng *stats.RNG) bool {
		return a.RunChip(faults[i].Modifiers(values), vary, rng).Passed
	}, seed)
}

// ChipTally is the integer accounting of a population campaign (escape or
// overkill): how many chips satisfied the campaign predicate out of how many
// evaluated cleanly. Keeping the tally in integers — rather than the
// percentage the Measure* conveniences return — is what makes partial
// tallies over disjoint chip shards mergeable without float drift: the
// merged Pct() is bit-identical to the whole-population campaign.
type ChipTally struct {
	// Hit counts chips satisfying the predicate (escaped faulty chips for
	// escape campaigns, failed good chips for overkill).
	Hit int
	// Clean counts chips that evaluated without a worker error.
	Clean int
	// Errors holds structured worker failures; errored chips count in
	// neither Hit nor Clean.
	Errors []error
}

// Pct returns 100·Hit/Clean, or 0 when nothing evaluated cleanly.
func (t ChipTally) Pct() float64 {
	if t.Clean == 0 {
		return 0
	}
	return 100 * float64(t.Hit) / float64(t.Clean)
}

// MergeChipTallies folds K partial tallies over disjoint chip shards into
// the whole-population tally. Integer sums only, so the merge is exact.
func MergeChipTallies(parts ...ChipTally) ChipTally {
	var out ChipTally
	for _, p := range parts {
		out.Hit += p.Hit
		out.Clean += p.Clean
		out.Errors = append(out.Errors, p.Errors...)
	}
	return out
}

// EscapeTally is EscapeCampaign returning the raw integer tally instead of
// the percentage, for callers that merge shards (the cluster coordinator).
func (a *ATE) EscapeTally(faults []fault.Fault, values fault.Values, vary variation.Model, seed uint64) ChipTally {
	return a.EscapeTallyAt(faults, values, identityIndices(len(faults)), vary, seed)
}

// EscapeTallyAt evaluates only the faulty chips whose global indices are
// listed in idx (each an index into faults). Chip i's RNG seed derives from
// its global index, never from its position in idx or the worker that runs
// it, so a sharded campaign over a partition of the indices merges to the
// bit-identical whole-population tally.
func (a *ATE) EscapeTallyAt(faults []fault.Fault, values fault.Values, idx []int, vary variation.Model, seed uint64) ChipTally {
	return a.tallyChipsAt("escape", idx, func(i int, rng *stats.RNG) bool {
		return a.RunChip(faults[i].Modifiers(values), vary, rng).Passed
	}, seed)
}

// OverkillTally is OverkillCampaign returning the raw integer tally.
func (a *ATE) OverkillTally(nChips int, vary variation.Model, seed uint64) ChipTally {
	return a.OverkillTallyAt(identityIndices(nChips), vary, seed)
}

// OverkillTallyAt evaluates only the good chips whose global population
// indices are listed in idx, with the same global-index seed derivation as
// EscapeTallyAt.
func (a *ATE) OverkillTallyAt(idx []int, vary variation.Model, seed uint64) ChipTally {
	return a.tallyChipsAt("overkill", idx, func(i int, rng *stats.RNG) bool {
		return !a.RunChip(nil, vary, rng).Passed
	}, seed)
}

// countChips evaluates pred for n independent chips in parallel and returns
// the percentage that satisfied it, over the chips that evaluated cleanly.
// Chip i always receives the same derived seed. Worker panics are recovered
// into structured errors instead of killing the process.
func (a *ATE) countChips(op string, n int, pred func(i int, rng *stats.RNG) bool, seed uint64) (float64, []error) {
	t := a.tallyChipsAt(op, identityIndices(n), pred, seed)
	return t.Pct(), t.Errors
}

// tallyChipsAt evaluates pred for every global chip index in idx on the
// worker pool and tallies the hits. pred receives the global index, and the
// per-chip RNG seed derives from that global index, so any partition of a
// population across calls (or cluster nodes) reproduces the exact
// whole-population accounting.
func (a *ATE) tallyChipsAt(op string, idx []int, pred func(i int, rng *stats.RNG) bool, seed uint64) ChipTally {
	var tally ChipTally
	if len(idx) == 0 {
		return tally
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(chipsCampaignSeconds) }()
	type verdict struct {
		hit bool
		err error
	}
	verdicts := runWorkers(len(idx), func(k, w int) (v verdict) {
		i := idx[k]
		defer func() {
			if p := recover(); p != nil {
				v.err = &WorkerError{Op: op, Worker: w, Chip: i, Panic: p}
			}
		}()
		v.hit = pred(i, stats.NewRNG(chipSeed(seed, i)))
		return v
	})
	for _, v := range verdicts {
		if v.err != nil {
			tally.Errors = append(tally.Errors, v.err)
			continue
		}
		tally.Clean++
		if v.hit {
			tally.Hit++
		}
	}
	return tally
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

// poolWorkers sizes a worker pool for n independent evaluations.
func poolWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runWorkers evaluates fn(i, w) for every i in [0, n) on a bounded worker
// pool and returns the results indexed by i, so aggregation order — and any
// error list built from it — is deterministic regardless of scheduling. w
// is the pool slot running the evaluation: fn may keep per-slot scratch
// state (each slot is a single goroutine).
func runWorkers[T any](n int, fn func(i, w int) T) []T {
	out, _ := runWorkersCtx(context.Background(), n, fn)
	return out
}

// runWorkersCtx is runWorkers with cooperative cancellation: workers stop
// claiming new indices once ctx is cancelled (evaluations already in flight
// run to completion). done[i] reports whether fn ran for index i — with an
// uncancelled context every index is done.
func runWorkersCtx[T any](ctx context.Context, n int, fn func(i, w int) T) (out []T, done []bool) {
	ensureObs()
	out = make([]T, n)
	done = make([]bool, n)
	workers := poolWorkers(n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				t := obs.StartTimer()
				out[i] = fn(i, w)
				t.ObserveElapsed(poolItemSeconds)
				poolEvaluations.Inc()
				done[i] = true
			}
		}(w)
	}
	wg.Wait()
	return out, done
}

// SampleFaults returns a deterministic stratified sample of at most max
// faults drawn from the universe of each listed kind, proportionally to
// universe sizes. When the budget fits (max >= number of non-empty kinds)
// every non-empty kind contributes at least one fault; with a smaller
// budget the kinds are served one fault each in listed order until the
// budget runs out. With max <= 0 or max >= total it returns the full
// concatenated universes.
//
// A bounded sample builds no universe: each partly sampled kind costs one
// RNG permutation of its universe size, and the kept indices are mapped to
// faults through fault.UniverseAt.
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
			for _, idx := range rng.Perm(sizes[i])[:want[i]] {
				f, _ := fault.UniverseAt(arch, k, idx)
				out = append(out, f)
			}
		}
	}
	return out
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
