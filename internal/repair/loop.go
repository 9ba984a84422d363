package repair

import (
	"context"
	"fmt"
	"sync"

	"neurotest/internal/apptest"
	"neurotest/internal/chip"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/margin"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
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

// Config describes one repair substrate: the structural test program, the
// modelled fault universe, the chip geometry with its spare provisioning,
// and the application workload that judges post-repair quality.
type Config struct {
	// TS is the structural test set (diagnosis domain and retest program).
	TS *pattern.TestSet
	// Scheme matches how chips under test are programmed (quantization);
	// nil tests against ideal configurations.
	Scheme *quant.Scheme
	// Values are the fault-strength parameters of the modelled universe.
	Values fault.Values
	// Universe is the modelled fault list the dictionary is built over.
	Universe []fault.Fault
	// ATE optionally supplies prebuilt test equipment for TS/Scheme
	// (e.g. the service's memoized artifact ATE); nil builds one.
	ATE *tester.ATE
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
	// Seed derives the workload, training and chip sub-seeds.
	Seed uint64
	// Opt tunes the repair policy.
	Opt Options
}

// Loop is one instantiated repair substrate: dictionary, programmed chip,
// trained application classifier and retest equipment. Build it once per
// (spec, geometry) and run many dies through it. A Loop is safe for
// concurrent Run calls: every phase reads shared immutable state except
// reprogram, which is serialised by mu (one physical programmer per chip).
type Loop struct {
	mu      sync.Mutex
	cfg     Config
	dict    *diagnose.Dictionary
	ate     *tester.ATE
	chip    *chip.Chip
	eff     *snn.Network
	cl      *apptest.Classifier
	ds      *apptest.Dataset
	planner Planner
	golden  float64
}

// New builds the repair substrate: the fault dictionary over cfg.Universe,
// a trained application classifier, and a chip programmed with it.
func New(cfg Config) (*Loop, error) {
	if cfg.TS == nil {
		return nil, fmt.Errorf("repair: config has no test set")
	}
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
		cfg.Opt.Margin = DefaultMarginFraction * cfg.TS.Params.Theta
	}
	if margin.ExactEq(cfg.Opt.AccuracyBudget, 0) {
		cfg.Opt.AccuracyBudget = DefaultAccuracyBudget
	}
	arch := cfg.TS.Arch

	dict := diagnose.Build(cfg.TS, cfg.Values, cfg.Scheme, cfg.Universe)

	classes := arch.Outputs()
	perClass := max(2, cfg.WorkloadSamples/classes)
	ds, err := apptest.Synthetic(arch.Inputs(), classes, perClass, 0.3, 0.05, cfg.Seed+101)
	if err != nil {
		return nil, err
	}
	cl, err := apptest.Train(ds, apptest.TrainOptions{Arch: arch, Params: cfg.TS.Params, Seed: cfg.Seed + 202})
	if err != nil {
		return nil, err
	}

	ch, err := chip.New(chip.Config{
		Arch: arch, Params: cfg.TS.Params, Core: cfg.Core,
		WeightBits: cfg.WeightBits,
		SpareAxons: cfg.SpareAxons, SpareNeurons: cfg.SpareNeurons,
	}, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	if err := ch.Program(cl.Net); err != nil {
		return nil, err
	}
	eff, err := ch.EffectiveNetwork()
	if err != nil {
		return nil, err
	}

	ate := cfg.ATE
	if ate == nil {
		ate = tester.New(cfg.TS, cfg.Scheme)
	}
	if cfg.Opt.Tolerance > 0 {
		ate, err = ate.CloneWithTolerance(cfg.Opt.Tolerance)
		if err != nil {
			return nil, err
		}
	}

	l := &Loop{
		cfg: cfg, dict: dict, ate: ate, chip: ch, eff: eff, cl: cl, ds: ds,
		planner: Planner{Chip: ch, Net: cl.Net, Margin: cfg.Opt.Margin},
	}
	l.golden = l.accuracy(nil)
	return l, nil
}

// Dictionary returns the fault dictionary the loop diagnoses against.
func (l *Loop) Dictionary() *diagnose.Dictionary { return l.dict }

// GoldenAccuracy returns the fault-free application accuracy baseline.
func (l *Loop) GoldenAccuracy() float64 { return l.golden }

// accuracy evaluates the application workload on the chip's effective
// network under a defect modifier set.
func (l *Loop) accuracy(mods *snn.Modifiers) float64 {
	if len(l.ds.Samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range l.ds.Samples {
		if l.cl.Predict(l.eff, s.Input, mods) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(l.ds.Samples))
}

// Run drives one die through the closed loop: structural test, dictionary
// diagnosis, plan computation, chip reprogram and retest. defect is the
// die's physical defect as behavioural modifiers (nil = defect-free);
// publish, when non-nil, receives one PhaseEvent as each phase completes.
// The returned plan is nil for a Healthy die.
//
// Reprogramming rewrites the chip's weight memories from the same
// configuration (clearing soft upsets per the chip.Program contract); on
// the variation-free chips the loop builds, the rewritten state is
// identical, and the write itself is serialised by the loop's mutex.
func (l *Loop) Run(ctx context.Context, defect *snn.Modifiers, publish func(PhaseEvent)) (*Report, *Plan, error) {
	ensureObs()
	timer := startRepairTimer()
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
	emit("test", "%d of %d items fail, application accuracy %.4f", rep.PreFails, len(l.cfg.TS.Items), rep.PreAccuracy)
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

	// Phase 4: reprogram the effective configuration.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	err = l.chip.Program(l.cl.Net)
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	emit("reprogram", "configuration rewritten across %d cores", l.chip.NumCores())

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
	v := l.ate.RunChip(uncured, variation.None(), nil)
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
