package service

import (
	"sync/atomic"

	"neurotest/internal/obs"
)

// Metrics holds the daemon's counters and latency histograms. Every counter
// is an atomic so handlers, cache and workers bump them without locking; the
// histograms are obs instruments whose methods are nil-safe, so a bare
// &Metrics{} (as unit tests construct) records counters and silently drops
// observations. The /metrics endpoint renders the typed registry as
// Prometheus text by default and keeps the legacy flat-JSON snapshot at
// ?format=json.
type Metrics struct {
	// HTTP traffic.
	HTTPRequests atomic.Int64

	// Artifact cache.
	CacheHits          atomic.Int64 // suite served from a resident entry
	CacheMisses        atomic.Int64 // suite had to be computed
	CacheEvictions     atomic.Int64 // entries dropped by the LRU bound
	SingleflightDedups atomic.Int64 // concurrent identical requests folded into one computation
	SuiteGenerations   atomic.Int64 // generation computations actually run
	GoldenBuilds       atomic.Int64 // artifact ATE constructions (artifact-cache misses)
	CachePeerHits      atomic.Int64 // artifacts fetched from a peer instead of rebuilt
	PeerFetchFailures  atomic.Int64 // peer artifact fetches that failed (fell back to build)

	// Job lifecycle.
	JobsSubmitted atomic.Int64
	JobsRejected  atomic.Int64 // backpressure 503s
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	EventsDropped atomic.Int64 // job progress events dropped at the per-job buffer cap

	// Worker pool.
	WorkersBusy atomic.Int64 // gauge: workers currently running a job

	// Latency histograms (nil until register is called; Observe on nil
	// histograms is a no-op).
	ArtifactBuildSeconds *obs.Histogram // suite generation + encoding, miss path
	QueueWaitSeconds     *obs.Histogram // job submit → start
	JobRunSeconds        *obs.Histogram // job start → finish
}

// Snapshot returns the counters as a flat map for JSON rendering.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"http_requests":       m.HTTPRequests.Load(),
		"cache_hits":          m.CacheHits.Load(),
		"cache_misses":        m.CacheMisses.Load(),
		"cache_evictions":     m.CacheEvictions.Load(),
		"singleflight_dedups": m.SingleflightDedups.Load(),
		"suite_generations":   m.SuiteGenerations.Load(),
		"golden_builds":       m.GoldenBuilds.Load(),
		"cache_peer_hits":     m.CachePeerHits.Load(),
		"peer_fetch_failures": m.PeerFetchFailures.Load(),
		"jobs_submitted":      m.JobsSubmitted.Load(),
		"jobs_rejected":       m.JobsRejected.Load(),
		"jobs_done":           m.JobsDone.Load(),
		"jobs_failed":         m.JobsFailed.Load(),
		"jobs_cancelled":      m.JobsCancelled.Load(),
		"events_dropped":      m.EventsDropped.Load(),
		"workers_busy":        m.WorkersBusy.Load(),
	}
}

// register wires the metrics into a typed obs registry: every atomic counter
// becomes a scrape-time CounterFunc view (the atomics stay the single source
// of truth, so the JSON snapshot and the Prometheus exposition can never
// disagree), and the latency histograms are created here.
func (m *Metrics) register(r *obs.Registry) {
	view := func(a *atomic.Int64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterFunc("neurotestd_http_requests_total", "HTTP requests received", view(&m.HTTPRequests))
	r.CounterFunc("neurotestd_cache_hits_total", "suites served from a resident cache entry", view(&m.CacheHits))
	r.CounterFunc("neurotestd_cache_misses_total", "suites that had to be computed", view(&m.CacheMisses))
	r.CounterFunc("neurotestd_cache_evictions_total", "artifacts dropped by the LRU byte bound", view(&m.CacheEvictions))
	r.CounterFunc("neurotestd_singleflight_dedups_total", "identical concurrent requests folded into one computation", view(&m.SingleflightDedups))
	r.CounterFunc("neurotestd_suite_generations_total", "suite generation computations actually run", view(&m.SuiteGenerations))
	r.CounterFunc("neurotestd_golden_builds_total", "artifact ATE constructions, one per artifact-cache miss; faultsim_golden_builds_total counts golden simulations", view(&m.GoldenBuilds))
	r.CounterFunc("neurotestd_cache_peer_hits_total", "artifacts fetched from a cluster peer instead of rebuilt", view(&m.CachePeerHits))
	r.CounterFunc("neurotestd_peer_fetch_failures_total", "peer artifact fetches that failed and fell back to a local build", view(&m.PeerFetchFailures))
	r.CounterFunc("neurotestd_jobs_submitted_total", "campaign jobs accepted into the queue", view(&m.JobsSubmitted))
	r.CounterFunc("neurotestd_jobs_rejected_total", "campaign jobs refused with 503 backpressure", view(&m.JobsRejected))
	r.CounterFunc("neurotestd_jobs_finished_total", "campaign jobs by terminal state",
		view(&m.JobsDone), obs.L("state", "done"))
	r.CounterFunc("neurotestd_jobs_finished_total", "campaign jobs by terminal state",
		view(&m.JobsFailed), obs.L("state", "failed"))
	r.CounterFunc("neurotestd_jobs_finished_total", "campaign jobs by terminal state",
		view(&m.JobsCancelled), obs.L("state", "cancelled"))
	r.CounterFunc("neurotestd_job_events_dropped_total", "job progress events dropped at the per-job buffer cap", view(&m.EventsDropped))
	r.GaugeFunc("neurotestd_workers_busy", "workers currently running a job", view(&m.WorkersBusy))

	m.ArtifactBuildSeconds = r.Histogram("neurotestd_artifact_build_seconds",
		"suite generation and encoding latency on cache misses", nil)
	m.QueueWaitSeconds = r.Histogram("neurotestd_queue_wait_seconds",
		"campaign job latency from submit to start", nil)
	m.JobRunSeconds = r.Histogram("neurotestd_job_run_seconds",
		"campaign job latency from start to finish", nil)
}
