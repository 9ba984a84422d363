package tester

import (
	"context"
	"fmt"
	"strconv"

	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// Outcome is the three-way verdict of an ATE test session on one chip.
// Plain RunChip knows only Pass/Fail; sessions over unreliable chips add
// Quarantine: the retest budget ran out before the answer stabilised, so
// the chip is routed to a manual re-probe lot instead of being binned.
type Outcome int

const (
	// Pass: every item matched (possibly after retests).
	Pass Outcome = iota
	// Fail: some item failed stably (immediately with no retest budget,
	// or confirmed by the retest/vote policy).
	Fail
	// Quarantine: the per-chip retest budget was exhausted while an item's
	// verdict was still disputed (or its readout kept dropping).
	Quarantine
)

// String renders the verdict as production binning labels.
func (o Outcome) String() string {
	switch o {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Quarantine:
		return "QUARANTINE"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RetestPolicy governs how a session responds to failing or dropped items.
//
// The zero value is the paper's deterministic flow: no retests, the first
// observation of every item is final — RunChipSession under the zero policy
// and a Reliable profile reproduces RunChip verdicts exactly (asserted by
// tests).
type RetestPolicy struct {
	// MaxRetests is the per-chip budget of extra item applications (beyond
	// the one baseline application each item gets). Retests of disputed
	// items cost 1 each; re-applications after dropped readouts cost
	// 1, 2, 4, … capped at MaxDropCost per consecutive drop — deterministic
	// "exponential backoff" accounting with no wall-clock sleeps: the
	// growing cost models the tester idling through longer and longer
	// settle times on a flaky readout channel.
	MaxRetests int
	// Vote enables best-two-of-three voting on disputed items: the initial
	// failing observation counts one vote, then retests run until either
	// pass or fail holds two votes. Without Vote a single retest decides
	// the item outright (classic retest-on-fail).
	Vote bool
}

// MaxDropCost caps the per-retry budget charge for consecutive dropped
// readouts of one item (the backoff ceiling).
const MaxDropCost = 8

// SessionReport is the outcome of one ATE session over one (possibly
// unreliable) chip, with the accounting needed to re-state the paper's
// test-length claims under flakiness.
type SessionReport struct {
	Outcome Outcome
	// FailedItem is the item that decided a Fail or Quarantine, or -1.
	FailedItem int
	// ItemsRun counts every item application, retests included.
	ItemsRun int
	// BaselineItems is the program length — what a reliable chip session
	// would run if it passed everything.
	BaselineItems int
	// Retests counts applications beyond each item's first attempt.
	Retests int
	// DroppedReads counts readouts lost to the flaky channel.
	DroppedReads int
	// BudgetSpent is how much of RetestPolicy.MaxRetests was consumed
	// (drop surcharges included).
	BudgetSpent int
}

// Amplification is the retest amplification of the session: extra items
// run ÷ baseline items. 0 for a reliable chip under any policy; the flaky
// experiment sweeps how it grows with intermittence and retest budget.
func (r SessionReport) Amplification() float64 {
	if r.BaselineItems == 0 {
		return 0
	}
	return float64(r.Retests) / float64(r.BaselineItems)
}

// String renders the session one-line, e.g. "FAIL@3 items=7 (+2 retests)".
func (r SessionReport) String() string {
	s := r.Outcome.String()
	if r.FailedItem >= 0 {
		s = fmt.Sprintf("%s@%d", s, r.FailedItem)
	}
	return fmt.Sprintf("%s items=%d (+%d retests, %d drops)", s, r.ItemsRun, r.Retests, r.DroppedReads)
}

// RunChipSession applies the full test program to one chip under test whose
// reliability is described by prof, under the retest policy. mods injects
// the die's physical defect (nil for a defect-free die); the profile's
// intermittence model gates whether that defect is active during each item
// application. vary models the die's frozen weight-variation tensor as in
// RunChip. seed makes the whole session — fault activation, readout noise
// and variation sampling — reproducible.
//
// With prof = unreliable.Reliable() and the zero policy this is exactly
// RunChip: first mismatch fails the chip, no retests, no quarantine.
func (a *ATE) RunChipSession(mods *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) (rep0 SessionReport) {
	ensureObs()
	timer := obs.StartTimer()
	defer func() { observeSession(timer, rep0) }()
	sess := prof.NewSession(seed)
	var errs *variation.ErrorTensor
	if !vary.Zero() {
		errs = vary.SampleError(a.ts.Arch, stats.NewRNG(seed^varySalt))
	}
	d := a.newDie(errs)
	rep := SessionReport{Outcome: Pass, FailedItem: -1, BaselineItems: len(a.ts.Items)}
	budget := policy.MaxRetests

	// apply runs one application of item i through the unreliable chip:
	// intermittence gates the defect, then the readout channel corrupts
	// (or drops) the simulated response.
	apply := func(i int, it pattern.Item, first bool) (snn.Result, error) {
		sim := d.program(it.ConfigIndex)
		m := mods
		if !sess.FaultActive() {
			m = nil
		}
		res := sim.Run(it.Pattern, it.Timesteps, it.Mode(), m)
		rep.ItemsRun++
		if !first {
			rep.Retests++
		}
		return sess.Observe(res)
	}

	// read applies item i until a readout survives the channel, charging
	// the budget 1, 2, 4, … (capped) per consecutive drop. ok=false means
	// the budget cannot cover the next retry: quarantine.
	read := func(i int, it pattern.Item, first bool) (snn.Result, bool) {
		cost := 1
		for {
			res, err := apply(i, it, first)
			if err == nil {
				return res, true
			}
			first = false
			rep.DroppedReads++
			if budget < cost {
				return snn.Result{}, false
			}
			budget -= cost
			rep.BudgetSpent += cost
			if cost < MaxDropCost {
				cost *= 2
			}
		}
	}

	quarantine := func(i int) SessionReport {
		rep.Outcome = Quarantine
		rep.FailedItem = i
		return rep
	}

	for i, it := range a.ts.Items {
		res, ok := read(i, it, true)
		if !ok {
			return quarantine(i)
		}
		if a.matches(res, a.goldenResult(i)) {
			continue
		}
		if policy.MaxRetests == 0 {
			// No-retest policy: the single observation is final (the
			// paper's production ATE behaviour).
			rep.Outcome = Fail
			rep.FailedItem = i
			return rep
		}
		// Disputed item: retest until the verdict stabilises. Without Vote
		// one retest decides; with Vote the first side to two total
		// observations wins (the initial failure counts one fail vote).
		needPass, needFail := 1, 1
		nPass, nFail := 0, 0
		if policy.Vote {
			needPass, needFail = 2, 2
			nFail = 1
		}
		for nPass < needPass && nFail < needFail {
			if budget < 1 {
				return quarantine(i)
			}
			budget--
			rep.BudgetSpent++
			res, ok := read(i, it, false)
			if !ok {
				return quarantine(i)
			}
			if a.matches(res, a.goldenResult(i)) {
				nPass++
			} else {
				nFail++
			}
		}
		if nFail >= needFail {
			rep.Outcome = Fail
			rep.FailedItem = i
			return rep
		}
	}
	return rep
}

// varySalt decorrelates the variation-sampling stream from the session's
// activation and readout streams.
const varySalt = 0x94D049BB133111EB

// SessionStats aggregates a population of chip sessions.
type SessionStats struct {
	Chips                  int
	Pass, Fail, Quarantine int
	// ItemsRun / Retests / DroppedReads / BudgetSpent sum the per-session
	// accounting; BaselineItems sums program lengths (chips × items).
	ItemsRun      int
	BaselineItems int
	Retests       int
	DroppedReads  int
	BudgetSpent   int
	// Errors holds structured worker failures (recovered panics); chips in
	// Errors are counted in none of the outcome tallies.
	Errors []error
}

// PassRate returns the percentage of chips binned Pass.
func (s SessionStats) PassRate() float64 { return s.rate(s.Pass) }

// FailRate returns the percentage of chips binned Fail.
func (s SessionStats) FailRate() float64 { return s.rate(s.Fail) }

// QuarantineRate returns the percentage of chips quarantined.
func (s SessionStats) QuarantineRate() float64 { return s.rate(s.Quarantine) }

func (s SessionStats) rate(n int) float64 {
	if s.Chips == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Chips)
}

// Amplification is the population retest amplification: total extra items
// run ÷ total baseline items.
func (s SessionStats) Amplification() float64 {
	if s.BaselineItems == 0 {
		return 0
	}
	return float64(s.Retests) / float64(s.BaselineItems)
}

// add merges one session into the stats.
func (s *SessionStats) add(rep SessionReport) {
	switch rep.Outcome {
	case Pass:
		s.Pass++
	case Fail:
		s.Fail++
	case Quarantine:
		s.Quarantine++
	}
	s.ItemsRun += rep.ItemsRun
	s.BaselineItems += rep.BaselineItems
	s.Retests += rep.Retests
	s.DroppedReads += rep.DroppedReads
	s.BudgetSpent += rep.BudgetSpent
}

// merge folds worker-local stats into s. Chips is managed by the caller
// (only completed sessions count), so it is deliberately not summed here.
func (s *SessionStats) merge(o SessionStats) {
	s.Pass += o.Pass
	s.Fail += o.Fail
	s.Quarantine += o.Quarantine
	s.ItemsRun += o.ItemsRun
	s.BaselineItems += o.BaselineItems
	s.Retests += o.Retests
	s.DroppedReads += o.DroppedReads
	s.BudgetSpent += o.BudgetSpent
	s.Errors = append(s.Errors, o.Errors...)
}

// MergeSessionStats folds K partial session tallies over disjoint chip
// shards into the whole-population stats. Every field is an integer count,
// so the merge is exact: the rates and amplification of the merged stats
// are bit-identical to a single campaign over the whole population — the
// invariant the cluster coordinator relies on to re-assemble sharded
// /v1/sessions campaigns. Errors concatenate in argument order.
func MergeSessionStats(parts ...SessionStats) SessionStats {
	var out SessionStats
	for _, p := range parts {
		out.Chips += p.Chips
		out.merge(p)
	}
	return out
}

// MeasureSessions runs n independent chip sessions in parallel and
// aggregates their verdicts. mods selects chip i's physical defect (nil
// function or nil return = defect-free die); every chip gets its own
// order-independent derived seed, so results are reproducible regardless
// of scheduling. Worker panics are recovered into SessionStats.Errors
// instead of crashing the campaign.
func (a *ATE) MeasureSessions(n int, mods func(i int) *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) SessionStats {
	//lint:ignore unchecked-error context.Background() never cancels, and cancellation is the only error MeasureSessionsContext returns
	stats, _ := a.MeasureSessionsContext(context.Background(), n, mods, prof, vary, policy, seed)
	return stats
}

// MeasureSessionsContext is MeasureSessions with cooperative cancellation:
// workers stop claiming chips once ctx is cancelled (sessions already in
// flight finish their chip). On cancellation it returns ctx.Err() together
// with the partial stats, whose Chips counts only the sessions actually run
// — so the rates stay meaningful over the evaluated population.
func (a *ATE) MeasureSessionsContext(ctx context.Context, n int, mods func(i int) *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) (SessionStats, error) {
	return a.MeasureSessionsAtContext(ctx, identityIndices(max(n, 0)), mods, prof, vary, policy, seed)
}

// MeasureSessionsAtContext runs sessions for exactly the chips whose global
// population indices are listed in idx. Chip i's session seed derives from
// its global index — chipSeed(seed, i) — never from its position in idx or
// the worker that runs it, so running a partition of the population across
// separate calls (or cluster nodes) and folding the partial stats with
// MergeSessionStats reproduces the whole-population campaign bit-exactly.
func (a *ATE) MeasureSessionsAtContext(ctx context.Context, idx []int, mods func(i int) *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) (SessionStats, error) {
	var stats SessionStats
	if len(idx) == 0 {
		return stats, ctx.Err()
	}
	// Reject malformed reliability profiles before any session draws noise:
	// a NaN probability would not crash, it would silently bias every
	// verdict in the campaign (NaN compares false against every draw).
	if err := prof.Validate(); err != nil {
		stats.Errors = append(stats.Errors, err)
		return stats, err
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(sessionsCampaignSeconds) }()
	ctx, span := obs.StartSpan(ctx, "measure")
	span.SetAttr("chips", strconv.Itoa(len(idx)))
	defer span.End()
	perChip := func(i int, w int) (rep SessionReport, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &WorkerError{Op: "session", Worker: w, Chip: i, Panic: p}
			}
		}()
		var m *snn.Modifiers
		if mods != nil {
			m = mods(i)
		}
		return a.RunChipSession(m, prof, vary, policy, chipSeed(seed, i)), nil
	}
	results, done := runWorkersCtx(ctx, len(idx), func(k, w int) SessionStats {
		i := idx[k]
		// Per-chip spans carry the binning verdict; distinct names (by
		// global chip index) give scheduling-independent span IDs under the
		// concurrent pool.
		_, chipSpan := obs.StartSpan(ctx, "chip-"+strconv.Itoa(i))
		var local SessionStats
		rep, err := perChip(i, w)
		if err != nil {
			local.Errors = append(local.Errors, err)
			chipSpan.SetAttr("outcome", "error")
		} else {
			local.add(rep)
			chipSpan.SetAttr("outcome", rep.Outcome.String())
		}
		chipSpan.End()
		return local
	})
	for k, r := range results {
		if !done[k] {
			continue
		}
		stats.Chips++
		stats.merge(r)
	}
	return stats, ctx.Err()
}
