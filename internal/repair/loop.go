package repair

import (
	"context"
	"fmt"

	"neurotest/internal/apptest"
	"neurotest/internal/chip"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/margin"
	"neurotest/internal/obs"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// Verdict is the terminal outcome of one repair session.
type Verdict int

const (
	// Healthy: the die failed no test item; no repair was attempted.
	Healthy Verdict = iota
	// Repaired: the remapped die passes the full structural retest and its
	// application accuracy is within budget of the fault-free golden.
	Repaired
	// Degraded: the plan cured something and accuracy is within budget,
	// but the structural retest still fails (residual modelled defect).
	Degraded
	// Unrepairable: the spare budget or margin could not rescue the die.
	Unrepairable
)

// String names the verdict the way test floors stamp dies.
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "HEALTHY"
	case Repaired:
		return "REPAIRED"
	case Degraded:
		return "DEGRADED"
	case Unrepairable:
		return "UNREPAIRABLE"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// PhaseEvent is one step of the closed loop, published as it completes.
type PhaseEvent struct {
	// Phase is "test", "diagnose", "plan", "reprogram" or "retest".
	Phase string `json:"phase"`
	// Detail is a deterministic one-line summary of the phase outcome.
	Detail string `json:"detail"`
}

// Report is the outcome of one repair session.
type Report struct {
	// PreFails counts failing test items before repair.
	PreFails int `json:"pre_fails"`
	// Candidates counts the diagnosed candidate faults.
	Candidates int `json:"candidates"`
	// ColumnsRemapped / RowsSwapped / CellsBypassed summarise the plan.
	ColumnsRemapped int `json:"columns_remapped"`
	RowsSwapped     int `json:"rows_swapped"`
	CellsBypassed   int `json:"cells_bypassed"`
	// CellsRetired counts crossbar cells the plan retires or rewires.
	CellsRetired int `json:"cells_retired"`
	// UnrepairableFaults counts candidates no strategy could cover.
	UnrepairableFaults int `json:"unrepairable_faults"`
	// PostFails counts failing test items after repair (0 when the retest
	// passes outright).
	PostFails int `json:"post_fails"`
	// RetestItems counts the items the early-exit production retest ran.
	RetestItems int `json:"retest_items"`
	// GoldenAccuracy / PreAccuracy / PostAccuracy are application-test
	// accuracies of the fault-free, faulty and repaired die.
	GoldenAccuracy float64 `json:"golden_accuracy"`
	PreAccuracy    float64 `json:"pre_accuracy"`
	PostAccuracy   float64 `json:"post_accuracy"`
	// Verdict is the terminal outcome.
	Verdict Verdict `json:"verdict"`
}

// String renders the report as one deterministic line.
func (r *Report) String() string {
	return fmt.Sprintf("%s: pre-fails=%d candidates=%d cols=%d rows=%d bypassed=%d retired=%d unrepairable=%d post-fails=%d acc golden=%.4f pre=%.4f post=%.4f",
		r.Verdict, r.PreFails, r.Candidates, r.ColumnsRemapped, r.RowsSwapped,
		r.CellsBypassed, r.CellsRetired, r.UnrepairableFaults, r.PostFails,
		r.GoldenAccuracy, r.PreAccuracy, r.PostAccuracy)
}

// Tally aggregates a population of repair reports: verdict bins, the dies
// that ship before and after repair, the plans' retired resources and the
// three application accuracies.
type Tally struct {
	// Dies counts the reports added.
	Dies int
	// Healthy / Repaired / Degraded / Unrepairable bin the verdicts.
	Healthy, Repaired, Degraded, Unrepairable int
	// PreShipped counts dies whose structural test passed before repair;
	// Shipped counts dies that ship after it (Healthy or Repaired).
	PreShipped, Shipped int
	// ColumnsRemapped / RowsSwapped / CellsBypassed / CellsRetired sum the
	// plans.
	ColumnsRemapped, RowsSwapped, CellsBypassed, CellsRetired int

	golden, pre, post float64 // accuracy sums
}

// Add merges one die's report.
func (t *Tally) Add(rep *Report) {
	t.Dies++
	switch rep.Verdict {
	case Healthy:
		t.Healthy++
	case Repaired:
		t.Repaired++
	case Degraded:
		t.Degraded++
	default:
		t.Unrepairable++
	}
	if rep.PreFails == 0 {
		t.PreShipped++
	}
	if rep.Verdict == Healthy || rep.Verdict == Repaired {
		t.Shipped++
	}
	t.ColumnsRemapped += rep.ColumnsRemapped
	t.RowsSwapped += rep.RowsSwapped
	t.CellsBypassed += rep.CellsBypassed
	t.CellsRetired += rep.CellsRetired
	t.golden += rep.GoldenAccuracy
	t.pre += rep.PreAccuracy
	t.post += rep.PostAccuracy
}

// UnrepairedYield returns the percentage of dies that would ship with no
// repair capability at all (the pre-repair structural test passes).
func (t Tally) UnrepairedYield() float64 { return t.mean(100 * float64(t.PreShipped)) }

// RecoveredYield returns the percentage of dies shipping after repair.
func (t Tally) RecoveredYield() float64 { return t.mean(100 * float64(t.Shipped)) }

// MeanGoldenAccuracy returns the mean fault-free application accuracy.
func (t Tally) MeanGoldenAccuracy() float64 { return t.mean(t.golden) }

// MeanPreAccuracy returns the mean application accuracy before repair.
func (t Tally) MeanPreAccuracy() float64 { return t.mean(t.pre) }

// MeanPostAccuracy returns the mean application accuracy after repair.
func (t Tally) MeanPostAccuracy() float64 { return t.mean(t.post) }

// mean divides a population sum by the die count (0 for no dies).
func (t Tally) mean(sum float64) float64 {
	if t.Dies == 0 {
		return 0
	}
	return sum / float64(t.Dies)
}

// Options tunes the repair policy.
type Options struct {
	// Margin is the |weight| threshold at or below which a stuck cell is
	// bypassed rather than remapped (ReSpawn's significance margin).
	// Zero selects DefaultMarginFraction of θ.
	Margin float64
	// Tolerance is the retest ATE's pass band in spike counts (0 = exact).
	Tolerance int
	// AccuracyBudget is the application-accuracy loss a repaired die may
	// show versus the fault-free golden. Zero selects DefaultAccuracyBudget.
	AccuracyBudget float64
}

// DefaultMarginFraction of θ is the default bypass margin: a cell whose
// configured weight is this insignificant cannot move the application's
// argmax by more than a fraction of one threshold per timestep.
const DefaultMarginFraction = 0.25

// DefaultAccuracyBudget is the post-repair accuracy loss the verdict
// tolerates (the "within 2% of golden" acceptance bar).
const DefaultAccuracyBudget = 0.02

// Config describes one repair substrate: the structural test equipment,
// the modelled fault universe, the chip geometry with its spare
// provisioning, and the application workload that judges post-repair
// quality.
type Config struct {
	// ATE holds the structural test program as chips under test are
	// programmed (tester.New(ts, scheme), or the service's memoized artifact
	// ATE). The dictionary is built over it and dies are tested and retested
	// on it, so diagnosis and retest read one program and one Golden.
	ATE *tester.ATE
	// Values are the fault-strength parameters of the modelled universe.
	Values fault.Values
	// Universe is the modelled fault list the dictionary is built over.
	Universe []fault.Fault
	// Core is the crossbar geometry (zero value = DefaultCoreShape).
	Core chip.CoreShape
	// SpareAxons / SpareNeurons reserve spare lines per core (the repair
	// budget; see chip.Config).
	SpareAxons   int
	SpareNeurons int
	// WeightBits is the weight-memory width (0 = 8).
	WeightBits int
	// WorkloadSamples sizes the synthetic application dataset (0 = 64).
	WorkloadSamples int
	// Seed derives the application workload's dataset and training seeds.
	Seed uint64
	// Opt tunes the repair policy.
	Opt Options
}

// Loop is one instantiated repair substrate: dictionary, chip geometry,
// trained application classifier as the chip holds it, and retest
// equipment. Build it once per (spec, geometry) and run many dies through
// it. A Loop holds no mutable state, so concurrent Run calls are safe.
type Loop struct {
	cfg     Config
	dict    *diagnose.Dictionary
	ate     *tester.ATE
	app     *snn.Network // the application configuration as the chip holds it
	cl      *apptest.Classifier
	ds      *apptest.Dataset
	planner Planner
	golden  float64
}

// New builds the repair substrate: the fault dictionary over cfg.Universe,
// a trained application classifier, and the chip it runs on, whose scheme
// programs the classifier's weights. A fault of the universe that is not a
// fault of the chip fails the build with an error naming it, before
// anything is simulated; a cancelled ctx stops the dictionary build.
func New(ctx context.Context, cfg Config) (*Loop, error) {
	if cfg.ATE == nil {
		return nil, fmt.Errorf("repair: config has no ATE")
	}
	ts := cfg.ATE.TestSet()
	if cfg.Core == (chip.CoreShape{}) {
		cfg.Core = chip.DefaultCoreShape()
	}
	if cfg.WeightBits == 0 {
		cfg.WeightBits = 8
	}
	if cfg.WorkloadSamples == 0 {
		cfg.WorkloadSamples = 64
	}
	if margin.ExactEq(cfg.Opt.Margin, 0) {
		cfg.Opt.Margin = DefaultMarginFraction * ts.Params.Theta
	}
	if margin.ExactEq(cfg.Opt.AccuracyBudget, 0) {
		cfg.Opt.AccuracyBudget = DefaultAccuracyBudget
	}
	arch := ts.Arch

	dict, err := diagnose.BuildOn(ctx, cfg.ATE, cfg.Values, cfg.Universe)
	if err != nil {
		return nil, err
	}

	ds, cl, err := apptest.Workload(arch, ts.Params, cfg.WorkloadSamples, cfg.Seed)
	if err != nil {
		return nil, err
	}

	ch, err := chip.New(chip.Config{
		Arch: arch, Core: cfg.Core,
		WeightBits: cfg.WeightBits,
		SpareAxons: cfg.SpareAxons, SpareNeurons: cfg.SpareNeurons,
	})
	if err != nil {
		return nil, err
	}
	app, _ := ch.Scheme().QuantizedClone(cl.Net)

	ate := cfg.ATE
	if cfg.Opt.Tolerance > 0 {
		ate, err = ate.CloneWithTolerance(cfg.Opt.Tolerance)
		if err != nil {
			return nil, err
		}
	}

	l := &Loop{
		cfg: cfg, dict: dict, ate: ate, app: app, cl: cl, ds: ds,
		planner: Planner{Chip: ch, Net: cl.Net, Margin: cfg.Opt.Margin},
	}
	l.golden = l.accuracy(nil)
	return l, nil
}

// Dictionary returns the fault dictionary the loop diagnoses against.
func (l *Loop) Dictionary() *diagnose.Dictionary { return l.dict }

// GoldenAccuracy returns the fault-free application accuracy baseline.
func (l *Loop) GoldenAccuracy() float64 { return l.golden }

// accuracy evaluates the application workload on the chip's programmed
// configuration under a defect modifier set.
func (l *Loop) accuracy(mods *snn.Modifiers) float64 {
	return l.cl.Accuracy(l.app, l.ds, mods)
}

// Run drives one die through the closed loop: structural test, dictionary
// diagnosis, plan computation, chip reprogram and retest. defect is the
// die's physical defect as behavioural modifiers (nil = defect-free);
// publish, when non-nil, receives one PhaseEvent as each phase completes.
// The returned plan is nil for a Healthy die.
//
// The reprogram phase rewrites the chip's weight memories with the
// application configuration once the plan has remapped it. Defects are
// behavioural modifiers, never chip state, and the loop's chips carry no
// variation, so the rewritten weights are the ones New programmed: the
// phase reports the write and changes nothing.
func (l *Loop) Run(ctx context.Context, defect *snn.Modifiers, publish func(PhaseEvent)) (*Report, *Plan, error) {
	ensureObs()
	timer := obs.StartTimer()
	emit := func(phase, format string, args ...any) {
		if publish != nil {
			publish(PhaseEvent{Phase: phase, Detail: fmt.Sprintf(format, args...)})
		}
	}
	rep := &Report{GoldenAccuracy: l.golden}

	// Phase 1: structural test (full signature — diagnosis needs every bit).
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sig := diagnose.ObserveChip(l.ate, defect)
	rep.PreFails = sig.CountFails()
	rep.PreAccuracy = l.accuracy(defect)
	emit("test", "%d of %d items fail, application accuracy %.4f", rep.PreFails, len(l.ate.TestSet().Items), rep.PreAccuracy)
	if rep.PreFails == 0 {
		rep.PostFails = 0
		rep.PostAccuracy = rep.PreAccuracy
		rep.Verdict = Healthy
		observeRepair(timer, rep, nil)
		return rep, nil, nil
	}

	// Phase 2: dictionary diagnosis (subset-consistent candidates).
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cands := l.dict.Candidates(sig)
	rep.Candidates = len(cands)
	emit("diagnose", "%d candidate faults over %d dictionary classes", len(cands), l.dict.Classes())

	// Phase 3: deterministic plan.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	plan, err := l.planner.Plan(cands)
	if err != nil {
		return nil, nil, err
	}
	rep.ColumnsRemapped = plan.Columns()
	rep.RowsSwapped = plan.Rows()
	rep.CellsBypassed = plan.Bypassed()
	rep.CellsRetired = plan.CellsRetired()
	rep.UnrepairableFaults = len(plan.Unrepairable)
	emit("plan", "%d actions: %d columns remapped, %d rows swapped, %d cells bypassed, %d unrepairable",
		len(plan.Actions), plan.Columns(), plan.Rows(), plan.Bypassed(), len(plan.Unrepairable))

	// Phase 4: reprogram the application configuration.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	emit("reprogram", "configuration rewritten across %d cores", l.planner.Chip.NumCores())

	// Phase 5: retest the repaired die. The structural retest masks the
	// plan's retired resources (Uncured: the plan is the die's known-bad
	// map, like mapped-out rows in memory test) — any failing item means a
	// defect the repair did not cover. Application accuracy, by contrast,
	// runs the die's true post-repair behaviour (Residual), paying for
	// every disconnected cell.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	uncured := plan.Uncured(defect)
	v := l.ate.RunChip(uncured)
	rep.RetestItems = v.ItemsRun
	if v.Passed {
		rep.PostFails = 0
	} else {
		rep.PostFails = diagnose.ObserveChip(l.ate, uncured).CountFails()
	}
	rep.PostAccuracy = l.accuracy(plan.Residual(defect))
	accuracyOK := rep.PostAccuracy >= rep.GoldenAccuracy-l.cfg.Opt.AccuracyBudget
	switch {
	case v.Passed && accuracyOK:
		rep.Verdict = Repaired
	case accuracyOK && !plan.Empty():
		rep.Verdict = Degraded
	default:
		rep.Verdict = Unrepairable
	}
	emit("retest", "%s: %d items run, %d fail, accuracy %.4f (golden %.4f)",
		rep.Verdict, rep.RetestItems, rep.PostFails, rep.PostAccuracy, rep.GoldenAccuracy)
	observeRepair(timer, rep, plan)
	return rep, plan, nil
}
