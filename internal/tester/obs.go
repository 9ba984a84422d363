package tester

import (
	"sync"

	"neurotest/internal/obs"
)

// Package-level instruments, registered once in the process-wide obs
// default registry. Campaign entry points and the chip campaigns' pool
// runs observe into them; every instrument method is nil-safe and the registration is lazy,
// so library users who never scrape pay one sync.Once check per campaign.
var (
	obsOnce sync.Once

	coverageCampaignSeconds *obs.Histogram // MeasureCoverageContext wall time
	sessionsCampaignSeconds *obs.Histogram // MeasureSessionsAtContext wall time
	chipsCampaignSeconds    *obs.Histogram // reliableChips (escape/overkill) wall time
	poolItemSeconds         *obs.Histogram // one pooled chip run
	sessionSeconds          *obs.Histogram // one session: any chip of any chip campaign, RunChip or RunChipSession

	sessionOutcomes map[Outcome]*obs.Counter
	sessionRetests  *obs.Counter
	sessionDrops    *obs.Counter
	poolEvaluations *obs.Counter
)

// ensureObs registers the package instruments on first use.
func ensureObs() {
	obsOnce.Do(func() {
		r := obs.Default()
		campaign := func(op string) *obs.Histogram {
			return r.Histogram("tester_campaign_seconds",
				"campaign wall time by operation", nil, obs.L("op", op))
		}
		coverageCampaignSeconds = campaign("coverage")
		sessionsCampaignSeconds = campaign("sessions")
		chipsCampaignSeconds = campaign("chips")
		poolItemSeconds = r.Histogram("tester_pool_item_seconds",
			"latency of one pooled chip run of a sessions, escape or overkill campaign", nil)
		sessionSeconds = r.Histogram("tester_session_seconds",
			"latency of one chip test session", nil)
		sessionOutcomes = map[Outcome]*obs.Counter{
			Pass:       r.Counter("tester_session_outcomes_total", "chip sessions by verdict", obs.L("outcome", "pass")),
			Fail:       r.Counter("tester_session_outcomes_total", "chip sessions by verdict", obs.L("outcome", "fail")),
			Quarantine: r.Counter("tester_session_outcomes_total", "chip sessions by verdict", obs.L("outcome", "quarantine")),
		}
		sessionRetests = r.Counter("tester_session_retests_total",
			"item applications beyond each item's first attempt")
		sessionDrops = r.Counter("tester_session_dropped_reads_total",
			"readouts lost to the flaky channel")
		poolEvaluations = r.Counter("tester_pool_evaluations_total",
			"pooled chip runs across all sessions, escape and overkill campaigns")
	})
}

// observeSession records one finished session's latency, verdict and retest
// accounting.
func observeSession(t obs.Timer, rep SessionReport) {
	ensureObs()
	t.ObserveElapsed(sessionSeconds)
	sessionOutcomes[rep.Outcome].Inc()
	sessionRetests.Add(int64(rep.Retests))
	sessionDrops.Add(int64(rep.DroppedReads))
}
