package repair

import (
	"sync"

	"neurotest/internal/obs"
)

// Package-level instruments, registered once in the process-wide obs
// default registry — the same lazy pattern as internal/online: callers who
// never scrape pay one sync.Once check per repair session.
var (
	obsOnce sync.Once

	repairSeconds *obs.Histogram // one closed-loop session's wall time

	plansTotal      *obs.Counter
	cellsByStrategy map[Strategy]*obs.Counter
	verdictCounters map[Verdict]*obs.Counter

	recoveredYield *obs.Gauge
)

// ensureObs registers the package instruments on first use.
func ensureObs() {
	obsOnce.Do(func() {
		r := obs.Default()
		repairSeconds = r.Histogram("repair_seconds",
			"wall time of one test-diagnose-plan-reprogram-retest session", nil)
		plansTotal = r.Counter("repair_plans_total",
			"repair plans computed for failing dies")
		cells := func(s Strategy) *obs.Counter {
			return r.Counter("repair_cells_retired_total",
				"crossbar cells retired or rewired by applied plans",
				obs.L("strategy", s.String()))
		}
		cellsByStrategy = map[Strategy]*obs.Counter{
			RemapColumn: cells(RemapColumn), SwapRow: cells(SwapRow),
			BypassCell: cells(BypassCell),
		}
		verdict := func(v Verdict) *obs.Counter {
			return r.Counter("repair_sessions_total",
				"repair sessions by terminal verdict", obs.L("verdict", v.String()))
		}
		verdictCounters = map[Verdict]*obs.Counter{
			Healthy: verdict(Healthy), Repaired: verdict(Repaired),
			Degraded: verdict(Degraded), Unrepairable: verdict(Unrepairable),
		}
		recoveredYield = r.Gauge("repair_recovered_yield",
			"fraction of the last repaired population shipping after repair")
	})
}

// observeRepair records one finished session. plan is nil for Healthy dies.
func observeRepair(t obs.Timer, rep *Report, plan *Plan) {
	t.ObserveElapsed(repairSeconds)
	verdictCounters[rep.Verdict].Inc()
	if plan == nil {
		return
	}
	plansTotal.Inc()
	for _, a := range plan.Actions {
		cellsByStrategy[a.Strategy].Add(int64(a.Cells))
	}
}

// SetRecoveredYield publishes the recovered-yield gauge: the fraction of a
// just-repaired population that ships (Healthy + Repaired dies).
func SetRecoveredYield(frac float64) {
	ensureObs()
	recoveredYield.Set(frac)
}
