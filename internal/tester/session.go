package tester

import (
	"context"
	"fmt"
	"strconv"

	"neurotest/internal/obs"
	"neurotest/internal/pool"
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
// observation of every item is final. RunChip and the escape and overkill
// campaigns are sessions under the zero policy and a Reliable profile.
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
// application. vary models the die's weight variation: each memristive
// device carries one fixed programming offset, drawn once per die, which
// shifts every configuration programmed into it — the paper's "modify each
// weight of the CUT by adding a random variable" (Section 5.3), drawn in
// the form the die reads it (variation.AtomError). seed makes the whole
// session — fault activation, readout noise and variation sampling —
// reproducible.
//
// With prof = unreliable.Reliable() and the zero policy the first mismatch
// fails the chip, with no retests and no quarantine: RunChip is that
// session without variation.
func (a *ATE) RunChipSession(mods *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) SessionReport {
	return a.session(a.newDie().reset(vary, stats.NewRNG(seed^varySalt), mods), mods, prof, policy, seed)
}

// session is the one pass/fail item loop: it applies the full test program
// to die d, which the caller has reset for the chip, with prof's session
// drawn from seed. A pool slot thereby tests chip after chip on its one
// die.
func (a *ATE) session(d *die, mods *snn.Modifiers, prof unreliable.Profile, policy RetestPolicy, seed uint64) (rep0 SessionReport) {
	ensureObs()
	timer := obs.StartTimer()
	defer func() { observeSession(timer, rep0) }()
	sess := prof.NewSession(seed)
	rep := SessionReport{Outcome: Pass, FailedItem: -1, BaselineItems: len(a.ts.Items)}
	budget := policy.MaxRetests

	// apply runs one application of item i through the unreliable chip:
	// intermittence gates the defect, then the readout channel corrupts
	// (or drops) the simulated response.
	apply := func(i int, first bool) (snn.Result, error) {
		m := mods
		if !sess.FaultActive() {
			m = nil
		}
		res := d.run(i, m)
		rep.ItemsRun++
		if !first {
			rep.Retests++
		}
		return sess.Observe(res)
	}

	// read applies item i until a readout survives the channel, charging
	// the budget 1, 2, 4, … (capped) per consecutive drop. ok=false means
	// the budget cannot cover the next retry: quarantine.
	read := func(i int, first bool) (snn.Result, bool) {
		cost := 1
		for {
			res, err := apply(i, first)
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

	for i := range a.ts.Items {
		res, ok := read(i, true)
		if !ok {
			return quarantine(i)
		}
		if a.matches(res, a.Golden(i)) {
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
			res, ok := read(i, false)
			if !ok {
				return quarantine(i)
			}
			if a.matches(res, a.Golden(i)) {
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
	//lint:ignore unchecked-error context.Background() never cancels, and the only other error, an invalid profile, is also recorded in stats.Errors
	stats, _ := a.MeasureSessionsAtContext(context.Background(), identityIndices(max(n, 0)), mods, prof, vary, policy, seed)
	return stats
}

// MeasureSessionsAtContext runs sessions for exactly the chips whose global
// population indices are listed in idx. Chip i's session seed derives from
// its global index — chipSeed(seed, i) — never from its position in idx or
// the worker that runs it, so running a partition of the population across
// separate calls (or cluster nodes) and folding the partial stats with
// MergeSessionStats reproduces the whole-population campaign bit-exactly.
//
// Cancellation is cooperative: workers stop claiming chips once ctx is
// cancelled (sessions already in flight finish their chip). On
// cancellation it returns ctx.Err() together with the partial stats, whose
// Chips counts only the sessions actually run — so the rates stay
// meaningful over the evaluated population.
func (a *ATE) MeasureSessionsAtContext(ctx context.Context, idx []int, mods func(i int) *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) (SessionStats, error) {
	if len(idx) == 0 {
		return SessionStats{}, ctx.Err()
	}
	// Reject malformed reliability profiles before any session draws noise:
	// a NaN probability would not crash, it would silently bias every
	// verdict in the campaign (NaN compares false against every draw).
	if err := prof.Validate(); err != nil {
		return SessionStats{Errors: []error{err}}, err
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(sessionsCampaignSeconds) }()
	ctx, span := obs.StartSpan(ctx, "measure")
	span.SetAttr("chips", strconv.Itoa(len(idx)))
	defer span.End()
	st := a.measureChips(ctx, idx, func(d *die, i, w int) (rep SessionReport, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &WorkerError{Worker: w, Chip: i, Panic: p}
			}
		}()
		var m *snn.Modifiers
		if mods != nil {
			m = mods(i)
		}
		s := chipSeed(seed, i)
		d.reset(vary, stats.NewRNG(s^varySalt), m)
		return a.session(d, m, prof, policy, s), nil
	})
	return st, ctx.Err()
}

// measureChips is the one pool runner of the chip campaigns (sessions,
// escape and overkill): it tests the chips whose global population indices
// are listed in idx on the worker pool and tallies their sessions.
// chip(d, i, w) runs chip i's session on pool slot w's die d, resetting the
// die for the chip first with the campaign's per-chip seed. Each slot tests
// its chips in turn on one die, so a campaign allocates a simulator and
// the variation's rows per slot, not per chip. A chip that returns an
// error counts in Errors and in none of the outcome tallies.
//
// Each chip runs under a span carrying its verdict; distinct names (by
// global chip index) give scheduling-independent span IDs under the
// concurrent pool. Each run is observed into the tester's pool
// instruments: its latency into tester_pool_item_seconds and one count
// into tester_pool_evaluations_total. Workers stop claiming chips once ctx
// is cancelled, and Chips counts only the sessions run.
func (a *ATE) measureChips(ctx context.Context, idx []int, chip func(d *die, i, w int) (SessionReport, error)) SessionStats {
	ensureObs()
	dies := make([]*die, pool.Workers(len(idx)))
	results, done := pool.Run(ctx, len(idx), func(k, w int) SessionStats {
		timer := obs.StartTimer()
		i := idx[k]
		if dies[w] == nil {
			dies[w] = a.newDie()
		}
		_, span := obs.StartSpan(ctx, "chip-"+strconv.Itoa(i))
		defer span.End()
		var local SessionStats
		rep, err := chip(dies[w], i, w)
		if err != nil {
			local.Errors = append(local.Errors, err)
			span.SetAttr("outcome", "error")
		} else {
			local.add(rep)
			span.SetAttr("outcome", rep.Outcome.String())
		}
		timer.ObserveElapsed(poolItemSeconds)
		poolEvaluations.Inc()
		return local
	})
	var st SessionStats
	for k, r := range results {
		if done[k] {
			st.Chips++
			st.merge(r)
		}
	}
	return st
}
