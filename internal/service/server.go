// Package service implements neurotestd, the test-floor daemon: JSON
// endpoints for on-demand test-suite generation and campaign jobs
// (coverage, unreliable-chip sessions) multiplexed over a content-addressed
// artifact cache and a bounded job queue.
//
// The design goal mirrors the paper's: generation is cheap enough (O(L)
// configurations and patterns) to run per chip model on demand — but only
// if the expensive shared substrate (generated suites, memoized golden
// traces) is computed once and reused across requests. The cache is keyed
// by a canonical hash of (arch, params, regime, quant scheme, fault kind);
// identical concurrent requests are folded into one computation
// (singleflight); campaign jobs flow through a bounded queue whose
// backpressure is an explicit 503 + Retry-After, and are cancellable via
// context propagation down through the tester worker pools.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"neurotest/internal/apptest"
	"neurotest/internal/cluster"
	"neurotest/internal/fault"
	"neurotest/internal/obs"
	"neurotest/internal/online"
	"neurotest/internal/quant"
	"neurotest/internal/repair"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
)

// maxRequestBody bounds request JSON (campaign descriptions are tiny).
const maxRequestBody = 1 << 20

// Server wires the cache, queue, metrics and trace recorder behind the
// HTTP API.
type Server struct {
	cfg      Config
	cache    *Cache
	queue    *Queue
	metrics  *Metrics
	registry *obs.Registry
	recorder *obs.Recorder
	mux      *http.ServeMux
	started  time.Time

	// Cluster role (nil/empty on a standalone node): coord shards campaigns
	// across the ring in coordinator mode; peerRing/peerClients back the
	// artifact cache's peer tier and the healthz reachability sweep.
	coord       *cluster.Coordinator
	peerRing    *cluster.Ring
	peerClients []*cluster.Client
}

// New builds a server (no listener; see Handler and ListenAndServe).
func New(cfg Config) *Server {
	if cfg.MaxWeights <= 0 {
		cfg.MaxWeights = DefaultConfig().MaxWeights
	}
	m := &Metrics{}
	reg := obs.NewRegistry()
	m.register(reg)
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		registry: reg,
		recorder: obs.NewRecorder(cfg.TraceBuffer),
		cache:    NewCache(cfg.CacheBytes, m),
		queue:    NewQueue(cfg.QueueCapacity, cfg.Workers, m),
		mux:      http.NewServeMux(),
		started:  now(),
	}
	s.registerGauges()
	s.initCluster()
	s.routes()
	return s
}

// registerGauges wires the scrape-time views that need the live cache and
// queue: residency, depth and capacity, plus process-level runtime health.
func (s *Server) registerGauges() {
	s.registry.GaugeFunc("neurotestd_cache_entries", "resident artifact cache entries",
		func() float64 { entries, _ := s.cache.Stats(); return float64(entries) })
	s.registry.GaugeFunc("neurotestd_cache_bytes", "encoded bytes held by the artifact cache",
		func() float64 { _, bytes := s.cache.Stats(); return float64(bytes) })
	s.registry.GaugeFunc("neurotestd_queue_depth", "campaign jobs waiting in the queue",
		func() float64 { return float64(s.queue.Depth()) })
	s.registry.GaugeFunc("neurotestd_queue_capacity", "bounded queue capacity",
		func() float64 { return float64(s.queue.Capacity()) })
	s.registry.GaugeFunc("neurotestd_workers", "configured campaign workers",
		func() float64 { return float64(s.cfg.Workers) })
	s.registry.GaugeFunc("neurotestd_uptime_seconds", "seconds since the server was constructed",
		func() float64 { return now().Sub(s.started).Seconds() })
	s.registry.GaugeFunc("neurotestd_trace_spans_buffered", "finished spans held by the trace ring",
		func() float64 { return float64(s.recorder.Len()) })
	s.registry.CounterFunc("neurotestd_trace_spans_total", "finished spans ever recorded",
		func() float64 { return float64(s.recorder.Total()) })
	obs.RegisterRuntimeGauges(s.registry)
}

// Recorder exposes the server's span recorder (shutdown trace drain, tests).
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// Metrics exposes the server's counters (shutdown reporting, tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.HTTPRequests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		s.mux.ServeHTTP(w, r)
	})
}

// Close cancels outstanding jobs and stops the worker pool.
func (s *Server) Close() { s.queue.Close() }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	s.mux.HandleFunc("POST /v1/coverage", serveCampaign(s, "coverage", s.newCoverage))
	s.mux.HandleFunc("POST /v1/sessions", serveCampaign(s, "sessions", s.newSessions))
	s.mux.HandleFunc("POST /v1/shards/coverage", serveShard(s, "coverage", s.newCoverage))
	s.mux.HandleFunc("POST /v1/shards/sessions", serveShard(s, "sessions", s.newSessions))
	s.mux.HandleFunc("POST /v1/monitor", s.handleMonitor)
	s.mux.HandleFunc("POST /v1/repair", s.handleRepair)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
}

// --- request shapes -------------------------------------------------------

type quantRequest struct {
	Bits        int    `json:"bits"`
	Granularity string `json:"granularity"` // "network", "boundary", "channel" (default)
}

// generateRequest selects one artifact. It doubles as the spec prefix of
// every campaign request, so a campaign's suite key equals the generate
// key for the same body.
type generateRequest struct {
	Arch           []int         `json:"arch"`
	Kind           string        `json:"kind"`            // fault model or "all" (default)
	VariationAware bool          `json:"variation_aware"` // Tables 1/2 "Yes" settings
	Quant          *quantRequest `json:"quant"`           // nil = ideal weights
}

type generateResponse struct {
	SuiteSummary
	Cached bool   `json:"cached"`
	Source string `json:"source"` // "miss", "hit" or "dedup"
	Href   string `json:"href"`   // where the binary suite is served
}

type coverageRequest struct {
	generateRequest
	// Sample caps the evaluated fault population (0 = exhaustive universe).
	Sample int    `json:"sample"`
	Seed   uint64 `json:"seed"`
}

type coverageJobResult struct {
	SuiteKey   string   `json:"suite_key"`
	Kind       string   `json:"kind"`
	Faults     int      `json:"faults"`
	Detected   int      `json:"detected"`
	Coverage   float64  `json:"coverage_pct"`
	Undetected []string `json:"undetected,omitempty"` // first few, for triage
	Errored    int      `json:"errored"`
}

// profileRequest carries the reliability knobs shared by every campaign
// over unreliable chips (defaults: always-active fault, perfect readout).
// It is embedded, so its fields promote into the outer JSON object.
type profileRequest struct {
	ActivationP *float64 `json:"activation_p"`
	Burst       bool     `json:"burst"`
	Persist     float64  `json:"persist"`
	JitterP     float64  `json:"jitter_p"`
	JitterMag   int      `json:"jitter_mag"`
	DropP       float64  `json:"drop_p"`
}

type sessionsRequest struct {
	generateRequest
	profileRequest
	// Chips is the population size; Faulty selects whether each die carries
	// an injected defect (sampled from the fault universe) or is good.
	Chips  int  `json:"chips"`
	Faulty bool `json:"faulty"`
	// Sample caps the defect universe the faulty population draws from
	// (0 = exhaustive).
	Sample int `json:"sample"`
	// Retest policy and pass band.
	MaxRetests int  `json:"max_retests"`
	Vote       bool `json:"vote"`
	Tolerance  int  `json:"tolerance"`
	// VariationSigma is the weight-variation σ as a fraction of θ.
	VariationSigma float64 `json:"variation_sigma"`
	Seed           uint64  `json:"seed"`
}

type sessionsJobResult struct {
	SuiteKey       string  `json:"suite_key"`
	Profile        string  `json:"profile"`
	Chips          int     `json:"chips"`
	Pass           int     `json:"pass"`
	Fail           int     `json:"fail"`
	Quarantine     int     `json:"quarantine"`
	PassRate       float64 `json:"pass_rate_pct"`
	FailRate       float64 `json:"fail_rate_pct"`
	QuarantineRate float64 `json:"quarantine_rate_pct"`
	ItemsRun       int     `json:"items_run"`
	BaselineItems  int     `json:"baseline_items"`
	Retests        int     `json:"retests"`
	DroppedReads   int     `json:"dropped_reads"`
	Amplification  float64 `json:"amplification"`
	Errored        int     `json:"errored"`
}

type monitorRequest struct {
	generateRequest
	profileRequest
	// Chips is the fielded population size; Faulty selects whether each die
	// carries an injected defect cluster (sampled from the fault universe)
	// or is defect-free.
	Chips  int  `json:"chips"`
	Faulty bool `json:"faulty"`
	// Sample caps the defect universe faulty dies draw from (0 = exhaustive).
	Sample int `json:"sample"`
	// Window is the per-chip monitoring window in workload stimuli
	// (default 256, capped at 4096).
	Window int `json:"window"`
	// WorkloadSamples sizes the synthetic application dataset the golden
	// reference is captured on (default 64, capped at 1024).
	WorkloadSamples int `json:"workload_samples"`
	// Detector thresholds (0 = tuned defaults).
	ZThreshold     float64 `json:"z_threshold"`
	CUSUMThreshold float64 `json:"cusum_threshold"`
	CUSUMSlack     float64 `json:"cusum_slack"`
	WarmUp         int     `json:"warm_up"`
	// Escalation retest policy and pass band.
	MaxRetests int  `json:"max_retests"`
	Vote       bool `json:"vote"`
	Tolerance  int  `json:"tolerance"`
	// Repair escalates one step further: chips whose structural retest
	// fails (or quarantines) are pushed through a closed repair loop
	// (test→diagnose→plan→reprogram→retest) and the repair verdict is
	// attached to the alarm event.
	Repair bool   `json:"repair"`
	Seed   uint64 `json:"seed"`
}

// monitorEvent is one NDJSON progress line of a /v1/monitor job: a chip
// whose monitor raised a drift alarm and was escalated to retest.
type monitorEvent struct {
	Event       string  `json:"event"` // always "alarm"
	Chip        int     `json:"chip"`
	Layer       int     `json:"layer"`
	Detector    string  `json:"detector"`
	Z           float64 `json:"z"`
	Drift       float64 `json:"drift"`
	Observation int     `json:"observation"`
	Verdict     string  `json:"verdict"`
	RetestItems int     `json:"retest_items"`
	// RepairVerdict is set when the monitor request asked for repair
	// escalation and this chip's retest failed.
	RepairVerdict string `json:"repair_verdict,omitempty"`
}

type monitorJobResult struct {
	SuiteKey             string  `json:"suite_key"`
	Profile              string  `json:"profile"`
	Chips                int     `json:"chips"`
	Healthy              int     `json:"healthy"`
	Pass                 int     `json:"pass"`
	Fail                 int     `json:"fail"`
	Quarantine           int     `json:"quarantine"`
	Alarms               int     `json:"alarms"`
	FalseAlarms          int     `json:"false_alarms"`
	DetectionRate        float64 `json:"detection_rate_pct"`
	FalseAlarmRate       float64 `json:"false_alarm_rate_pct"`
	MeanDetectionLatency float64 `json:"mean_detection_latency"`
	Observations         int     `json:"observations"`
	Dropped              int     `json:"dropped"`
	// Repaired counts failing chips the repair escalation rescued.
	Repaired int `json:"repaired,omitempty"`
}

// repairRequest describes a /v1/repair job: a population of dies carrying
// injected defect clusters, pushed through the closed repair loop.
type repairRequest struct {
	generateRequest
	// Chips is the population size (>= 1).
	Chips int `json:"chips"`
	// Clusters is the number of faults merged into each die's defect
	// (0 = defect-free dies, capped at 8 — the sweep's densest point).
	Clusters int `json:"clusters"`
	// Sample caps the modelled fault universe the dictionary is built over
	// (dictionary construction is universe x items fault simulation;
	// 0 = default 128, capped at 2048).
	Sample int `json:"sample"`
	// SpareAxons / SpareNeurons reserve spare lines per core — the repair
	// budget (0 = default 8; tail tiles may hold more).
	SpareAxons   int `json:"spare_axons"`
	SpareNeurons int `json:"spare_neurons"`
	// WeightBits is the chip's weight-memory width (0 = 8).
	WeightBits int `json:"weight_bits"`
	// WorkloadSamples sizes the application dataset judging post-repair
	// accuracy (0 = default 64, capped at 1024).
	WorkloadSamples int `json:"workload_samples"`
	// Margin is the |weight| bypass threshold (0 = default fraction of θ).
	Margin float64 `json:"margin"`
	// Tolerance is the retest pass band in spike counts.
	Tolerance int `json:"tolerance"`
	// AccuracyBudget is the tolerated post-repair accuracy loss (0 = 2%).
	AccuracyBudget float64 `json:"accuracy_budget"`
	Seed           uint64  `json:"seed"`
}

// repairEvent is one NDJSON line of a /v1/repair job stream: a loop phase
// completing on one die, or the die's terminal verdict.
type repairEvent struct {
	Event   string `json:"event"` // "phase" or "verdict"
	Chip    int    `json:"chip"`
	Phase   string `json:"phase,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	// Verdict-event extras.
	CellsRetired int     `json:"cells_retired,omitempty"`
	PostFails    int     `json:"post_fails,omitempty"`
	PostAccuracy float64 `json:"post_accuracy,omitempty"`
}

// repairJobResult is the terminal summary of a /v1/repair job.
type repairJobResult struct {
	SuiteKey           string  `json:"suite_key"`
	Chips              int     `json:"chips"`
	Clusters           int     `json:"clusters"`
	DictionaryFaults   int     `json:"dictionary_faults"`
	DictionaryClasses  int     `json:"dictionary_classes"`
	Healthy            int     `json:"healthy"`
	Repaired           int     `json:"repaired"`
	Degraded           int     `json:"degraded"`
	Unrepairable       int     `json:"unrepairable"`
	ColumnsRemapped    int     `json:"columns_remapped"`
	RowsSwapped        int     `json:"rows_swapped"`
	CellsBypassed      int     `json:"cells_bypassed"`
	CellsRetired       int     `json:"cells_retired"`
	UnrepairedYield    float64 `json:"unrepaired_yield_pct"`
	RecoveredYield     float64 `json:"recovered_yield_pct"`
	MeanGoldenAccuracy float64 `json:"mean_golden_accuracy"`
	MeanPreAccuracy    float64 `json:"mean_pre_accuracy"`
	MeanPostAccuracy   float64 `json:"mean_post_accuracy"`
}

// --- request resolution ---------------------------------------------------

// badRequest marks client errors (400) apart from server failures (500).
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// resolveSpec validates a generate request into a canonical SuiteSpec.
func (s *Server) resolveSpec(req generateRequest) (SuiteSpec, error) {
	spec := SuiteSpec{VariationAware: req.VariationAware}
	if len(req.Arch) == 0 {
		return spec, badf("missing arch (e.g. [576,256,32,10])")
	}
	arch := snn.Arch(req.Arch)
	if err := arch.Validate(); err != nil {
		return spec, &badRequest{msg: err.Error()}
	}
	weights := 0
	for b := 0; b < arch.Boundaries(); b++ {
		weights += arch[b] * arch[b+1]
	}
	if weights > s.cfg.MaxWeights {
		return spec, badf("architecture %v has %d weights per configuration, above the service limit %d", arch, weights, s.cfg.MaxWeights)
	}
	spec.Arch = arch
	var err error
	if spec.Kind, spec.KindAll, err = fault.ParseKind(req.Kind); err != nil {
		return spec, &badRequest{msg: err.Error()}
	}
	if req.Quant != nil {
		g, err := quant.ParseGranularity(req.Quant.Granularity)
		if err != nil {
			return spec, &badRequest{msg: err.Error()}
		}
		scheme, err := quant.NewScheme(req.Quant.Bits, g)
		if err != nil {
			return spec, &badRequest{msg: err.Error()}
		}
		spec.Scheme = &scheme
	}
	return spec, nil
}

// resolveProfile validates the reliability knobs of a campaign request
// through the unreliable package's own gate, so the service and every other
// NewSession caller reject exactly the same profiles.
func resolveProfile(req profileRequest) (unreliable.Profile, error) {
	p := 1.0
	if req.ActivationP != nil {
		p = *req.ActivationP
	}
	prof := unreliable.Profile{
		Intermittence: unreliable.Intermittence{P: p, Burst: req.Burst, Persist: req.Persist},
		Readout:       unreliable.Readout{JitterP: req.JitterP, JitterMag: req.JitterMag, DropP: req.DropP},
	}
	if err := prof.Validate(); err != nil {
		return unreliable.Profile{}, &badRequest{msg: err.Error()}
	}
	return prof, nil
}

// --- handlers -------------------------------------------------------------

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec, err := s.resolveSpec(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	art, src, err := s.cache.Suite(spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, generateResponse{
		SuiteSummary: art.Summary,
		Cached:       src != SourceMiss,
		Source:       src.String(),
		Href:         "/v1/artifacts/" + art.Key,
	})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	art := s.cache.Lookup(key)
	if art == nil {
		httpError(w, http.StatusNotFound, "no resident artifact %q (evicted or never generated — POST /v1/generate to recreate it)", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", `"`+art.Key+`"`)
	w.Header().Set("Content-Length", fmt.Sprint(len(art.Bytes)))
	w.WriteHeader(http.StatusOK)
	w.Write(art.Bytes)
}

// monitorChipSeed decorrelates per-chip field episodes; the odd multiplier
// is the 32-bit golden-ratio constant.
func monitorChipSeed(seed uint64, i int) uint64 {
	return seed + 1 + uint64(i)*2654435761
}

// monitorClusterSize is how many sampled faults a faulty fielded die
// carries. In-field failures cluster (a marginal via, a damaged power rail
// take out several neurons together), and a cluster's spike-count drift is
// what the distribution monitor is built to see; truly single subtle
// defects are the structural retest's job, not the monitor's.
const monitorClusterSize = 3

// handleMonitor runs the in-field lifecycle over a fielded population:
// every chip streams the application workload through a drift monitor, and
// alarmed chips are escalated to a structural retest session. Alarms are
// published as NDJSON events on the job stream while the campaign runs; the
// terminal line carries the population summary.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	var req monitorRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec, err := s.resolveSpec(req.generateRequest)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.Chips < 1 {
		s.fail(w, badf("chips must be >= 1 (got %d)", req.Chips))
		return
	}
	if req.Sample < 0 || req.MaxRetests < 0 || req.Tolerance < 0 {
		s.fail(w, badf("sample, max_retests and tolerance must be >= 0"))
		return
	}
	if req.Window < 0 || req.Window > 4096 {
		s.fail(w, badf("window must be in [0,4096] (got %d; 0 = default 256)", req.Window))
		return
	}
	if req.WorkloadSamples < 0 || req.WorkloadSamples > 1024 {
		s.fail(w, badf("workload_samples must be in [0,1024] (got %d; 0 = default 64)", req.WorkloadSamples))
		return
	}
	detector := online.Config{
		ZThreshold:     req.ZThreshold,
		CUSUMSlack:     req.CUSUMSlack,
		CUSUMThreshold: req.CUSUMThreshold,
		WarmUp:         req.WarmUp,
	}
	if err := detector.Normalize().Validate(); err != nil {
		s.fail(w, &badRequest{msg: err.Error()})
		return
	}
	prof, err := resolveProfile(req.profileRequest)
	if err != nil {
		s.fail(w, err)
		return
	}
	samples := req.WorkloadSamples
	if samples == 0 {
		samples = 64
	}
	s.submit(w, r, "monitor", s.fixtureJob(spec, "monitor", func(ctx context.Context, f fixture) (any, error) {
		f.root.SetAttr("profile", prof.String())
		ate, err := f.ate.CloneWithTolerance(req.Tolerance)
		if err != nil {
			return nil, err
		}
		model := spec.Model()
		// The application workload: a synthetic classification task trained
		// onto the chip's architecture, plus its golden spike statistics.
		_, work := obs.StartSpan(ctx, "golden-capture")
		ds, cl, err := apptest.Workload(spec.Arch, model.Params, samples, req.Seed)
		if err != nil {
			work.End()
			return nil, err
		}
		golden, err := online.CaptureGolden(cl.Net, ds, cl.Timesteps)
		work.End()
		if err != nil {
			return nil, err
		}
		var defects []fault.Fault
		if req.Faulty {
			if defects, err = spec.defects(req.Sample, req.Seed); err != nil {
				return nil, err
			}
		}
		opt := online.FieldOptions{
			Window:   req.Window,
			Detector: detector,
			Policy:   tester.RetestPolicy{MaxRetests: req.MaxRetests, Vote: req.Vote},
		}
		// Lazily built repair substrate for the Repair escalation: most
		// monitor runs never escalate past retest, and dictionary
		// construction is the expensive part of the closed loop.
		var rloop *repair.Loop
		repairLoop := func() (*repair.Loop, error) {
			if rloop != nil {
				return rloop, nil
			}
			sample := req.Sample
			if sample == 0 {
				sample = defaultRepairSample
			}
			universe, err := spec.defects(sample, req.Seed)
			if err != nil {
				return nil, err
			}
			rloop, err = newRepairLoop(ctx, f.ate, spec, universe, repairRequest{
				SpareAxons: defaultRepairSpares, SpareNeurons: defaultRepairSpares,
				WorkloadSamples: samples, Tolerance: req.Tolerance, Seed: req.Seed,
			})
			return rloop, err
		}
		repaired := 0
		var stats online.FieldStats
		for i := 0; i < req.Chips; i++ {
			chip := online.FieldChip{Index: i, Profile: prof, Seed: monitorChipSeed(req.Seed, i)}
			_, chip.Mods = tester.ClusterDefect(defects, model.Values, i, monitorClusterSize)
			rep, err := online.RunField(ctx, ate, golden, cl.Net, ds, chip, opt)
			if err != nil {
				return nil, err
			}
			stats.Add(rep, chip.Mods != nil)
			if rep.Alarm != nil {
				ev := monitorEvent{
					Event:       "alarm",
					Chip:        i,
					Layer:       rep.Alarm.Layer,
					Detector:    rep.Alarm.Detector,
					Z:           rep.Alarm.Z,
					Drift:       rep.Alarm.Drift,
					Observation: rep.Alarm.Observation,
					Verdict:     rep.Verdict.String(),
				}
				if rep.Retest != nil {
					ev.RetestItems = rep.Retest.ItemsRun
				}
				// The last escalation step: chips the retest condemns get
				// one shot at diagnosis-driven repair before scrapping.
				if req.Repair && (rep.Verdict == online.Fail || rep.Verdict == online.Quarantine) {
					loop, err := repairLoop()
					if err != nil {
						return nil, err
					}
					rrep, _, err := loop.Run(ctx, chip.Mods, nil)
					if err != nil {
						return nil, err
					}
					ev.RepairVerdict = rrep.Verdict.String()
					if rrep.Verdict == repair.Repaired {
						repaired++
					}
				}
				f.job.Publish(ev)
			}
		}
		return monitorJobResult{
			SuiteKey:             f.art.Key,
			Profile:              prof.String(),
			Chips:                stats.Chips,
			Healthy:              stats.Healthy,
			Pass:                 stats.Pass,
			Fail:                 stats.Fail,
			Quarantine:           stats.Quarantine,
			Alarms:               stats.Alarms,
			FalseAlarms:          stats.FalseAlarms,
			DetectionRate:        stats.DetectionRate(),
			FalseAlarmRate:       stats.FalseAlarmRate(),
			MeanDetectionLatency: stats.MeanDetectionLatency(),
			Observations:         stats.Observations,
			Dropped:              stats.Dropped,
			Repaired:             repaired,
		}, nil
	}))
}

// defaultRepairSample caps the modelled fault universe a repair dictionary
// is built over when the request does not say (dictionary construction is
// universe x items fault simulation, so paper-sized archs need the cap).
const defaultRepairSample = 128

// defaultRepairSpares is the per-core spare-line reservation when the
// request does not say — enough budget to remap several fault clusters on
// a fully used 256-wide core.
const defaultRepairSpares = 8

// newRepairLoop assembles the closed-loop repair substrate over a cached
// artifact's memoized ATE, whose Golden every repair job on the artifact
// builds its dictionary over, and a chip provisioned with spare lines.
func newRepairLoop(ctx context.Context, base *tester.ATE, spec SuiteSpec, universe []fault.Fault, req repairRequest) (*repair.Loop, error) {
	model := spec.Model()
	return repair.New(ctx, repair.Config{
		ATE:             base,
		Values:          model.Values,
		Universe:        universe,
		SpareAxons:      req.SpareAxons,
		SpareNeurons:    req.SpareNeurons,
		WeightBits:      req.WeightBits,
		WorkloadSamples: req.WorkloadSamples,
		Seed:            req.Seed,
		Opt: repair.Options{
			Margin:         req.Margin,
			Tolerance:      req.Tolerance,
			AccuracyBudget: req.AccuracyBudget,
		},
	})
}

// handleRepair runs the closed repair loop over a population of dies
// carrying injected defect clusters: each die is tested, diagnosed against
// the fault dictionary, remapped/bypassed onto spare lines, reprogrammed
// and retested. Phase events stream as NDJSON while the job runs; the
// terminal line carries recovered-yield and accuracy summaries.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req repairRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec, err := s.resolveSpec(req.generateRequest)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.Chips < 1 {
		s.fail(w, badf("chips must be >= 1 (got %d)", req.Chips))
		return
	}
	if req.Clusters < 0 || req.Clusters > 8 {
		s.fail(w, badf("clusters must be in [0,8] (got %d)", req.Clusters))
		return
	}
	if req.Sample < 0 || req.Sample > 2048 {
		s.fail(w, badf("sample must be in [0,2048] (got %d; 0 = default %d)", req.Sample, defaultRepairSample))
		return
	}
	if req.SpareAxons < 0 || req.SpareNeurons < 0 {
		s.fail(w, badf("spare reservations must be >= 0 (got %d/%d)", req.SpareAxons, req.SpareNeurons))
		return
	}
	if req.WeightBits != 0 && (req.WeightBits < 2 || req.WeightBits > 16) {
		s.fail(w, badf("weight_bits must be in [2,16] (got %d; 0 = default 8)", req.WeightBits))
		return
	}
	if req.WorkloadSamples < 0 || req.WorkloadSamples > 1024 {
		s.fail(w, badf("workload_samples must be in [0,1024] (got %d; 0 = default 64)", req.WorkloadSamples))
		return
	}
	if req.Margin < 0 || req.Tolerance < 0 || req.AccuracyBudget < 0 || req.AccuracyBudget > 1 {
		s.fail(w, badf("margin, tolerance and accuracy_budget must be >= 0 (budget <= 1)"))
		return
	}
	if req.Sample == 0 {
		req.Sample = defaultRepairSample
	}
	if req.SpareAxons == 0 {
		req.SpareAxons = defaultRepairSpares
	}
	if req.SpareNeurons == 0 {
		req.SpareNeurons = defaultRepairSpares
	}
	s.submit(w, r, "repair", s.fixtureJob(spec, "repair", func(ctx context.Context, f fixture) (any, error) {
		universe, err := spec.defects(req.Sample, req.Seed)
		if err != nil {
			return nil, err
		}
		// The substrate span covers the expensive one-offs: dictionary
		// construction, workload training and chip programming.
		subCtx, sub := obs.StartSpan(ctx, "substrate")
		loop, err := newRepairLoop(subCtx, f.ate, spec, universe, req)
		sub.End()
		if err != nil {
			return nil, err
		}
		model := spec.Model()
		res := repairJobResult{
			SuiteKey: f.art.Key, Chips: req.Chips, Clusters: req.Clusters,
			DictionaryFaults:  loop.Dictionary().Total(),
			DictionaryClasses: loop.Dictionary().Classes(),
		}
		preShipped, shipped := 0, 0
		for i := 0; i < req.Chips; i++ {
			_, defect := tester.ClusterDefect(universe, model.Values, i, req.Clusters)
			chipIdx := i
			rep, _, err := loop.Run(ctx, defect, func(ev repair.PhaseEvent) {
				f.job.Publish(repairEvent{Event: "phase", Chip: chipIdx, Phase: ev.Phase, Detail: ev.Detail})
			})
			if err != nil {
				return nil, err
			}
			switch rep.Verdict {
			case repair.Healthy:
				res.Healthy++
			case repair.Repaired:
				res.Repaired++
			case repair.Degraded:
				res.Degraded++
			default:
				res.Unrepairable++
			}
			if rep.PreFails == 0 {
				preShipped++
			}
			if rep.Verdict == repair.Healthy || rep.Verdict == repair.Repaired {
				shipped++
			}
			res.ColumnsRemapped += rep.ColumnsRemapped
			res.RowsSwapped += rep.RowsSwapped
			res.CellsBypassed += rep.CellsBypassed
			res.CellsRetired += rep.CellsRetired
			res.MeanGoldenAccuracy += rep.GoldenAccuracy
			res.MeanPreAccuracy += rep.PreAccuracy
			res.MeanPostAccuracy += rep.PostAccuracy
			f.job.Publish(repairEvent{
				Event: "verdict", Chip: i, Verdict: rep.Verdict.String(),
				CellsRetired: rep.CellsRetired, PostFails: rep.PostFails,
				PostAccuracy: rep.PostAccuracy,
			})
		}
		n := float64(req.Chips)
		res.UnrepairedYield = 100 * float64(preShipped) / n
		res.RecoveredYield = 100 * float64(shipped) / n
		res.MeanGoldenAccuracy /= n
		res.MeanPreAccuracy /= n
		res.MeanPostAccuracy /= n
		repair.SetRecoveredYield(float64(shipped) / n)
		return res, nil
	}))
}

// retryAfterSeconds estimates when a refused submission is worth retrying:
// the backlog of waiting jobs times the observed mean job latency, spread
// over the worker pool. With no latency history yet it falls back to 1s;
// the estimate is clamped to [1s, 60s] so a pathological backlog never
// tells clients to go away for hours.
func (s *Server) retryAfterSeconds() int {
	mean := s.metrics.JobRunSeconds.Mean()
	if mean <= 0 {
		return 1
	}
	est := float64(s.queue.Depth()) * mean / float64(max(1, s.cfg.Workers))
	sec := int(math.Ceil(est))
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return sec
}

// submit enqueues a job body, answering 202 + job status, or 503 +
// Retry-After under backpressure. The body receives its own Job handle to
// publish progress events on.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, run func(ctx context.Context, j *Job) (any, error)) {
	job, err := s.queue.SubmitJob(kind, run)
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		httpError(w, http.StatusServiceUnavailable, "job queue full (capacity %d) — retry later", s.queue.Capacity())
		return
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.queue.Get(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleJobStream streams the job's progress as NDJSON: one status object
// per state transition plus one line per event the running body published
// (e.g. /v1/monitor alarm notifications), closing after the terminal status
// line (which carries the result). Events published since the last wake are
// drained before the status snapshot, so the terminal status is always the
// last line. Clients get live campaign progress with plain `curl -N`; a
// slow reader backpressures through Encode, never into the job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job := s.queue.Get(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seen := 0
	lastState := ""
	for {
		st, events, changed := job.watchFrom(seen)
		seen += len(events)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if st.State != lastState {
			if err := enc.Encode(st); err != nil {
				return
			}
			lastState = st.State
		}
		if flusher != nil {
			flusher.Flush()
		}
		if JobStateFromString(st.State).Terminal() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := s.queue.Get(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

// handleHealthz answers the shared cluster.Health shape: liveness plus
// queue/pool saturation, and — on cluster nodes — per-peer reachability
// (see clusterHealth for the recursion guard).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterHealth(r))
}

// handleMetrics serves the typed registry as Prometheus text by default and
// keeps the pre-registry flat-JSON snapshot at ?format=json for existing
// scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.handleMetricsJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// The server's own instruments live in its registry; the campaign
	// layers (tester, faultsim) register lazily in the process default.
	// One scrape merges both.
	//lint:ignore unchecked-error a failed scrape write means the client is gone; the response writer is the only error channel
	obs.WriteText(w, s.registry, obs.Default())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter) {
	snap := s.metrics.Snapshot()
	entries, bytes := s.cache.Stats()
	snap["cache_entries"] = int64(entries)
	snap["cache_bytes"] = bytes
	snap["queue_depth"] = int64(s.queue.Depth())
	snap["queue_capacity"] = int64(s.queue.Capacity())
	snap["workers"] = int64(s.cfg.Workers)
	counts := s.queue.CountByState()
	for _, state := range jobStateNames() {
		snap["jobs_"+state] = int64(counts[state])
	}
	snap["uptime_seconds"] = int64(now().Sub(s.started).Seconds())
	writeJSON(w, http.StatusOK, snap)
}

// handleTraces streams the span ring buffer as NDJSON, oldest span first —
// the phase timeline of every recent campaign, one JSON object per line.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	//lint:ignore unchecked-error a failed stream write means the client is gone; the response writer is the only error channel
	s.recorder.WriteNDJSON(w)
}

// --- plumbing -------------------------------------------------------------

// JobStateFromString parses a rendered state (inverse of JobState.String).
func JobStateFromString(s string) JobState {
	switch s {
	case "running":
		return JobRunning
	case "done":
		return JobDone
	case "failed":
		return JobFailed
	case "cancelled":
		return JobCancelled
	default:
		return JobQueued
	}
}

// decode parses the request body, answering 400 on malformed JSON.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

// fail maps an error to 400 (client) or 500 (server).
func (s *Server) fail(w http.ResponseWriter, err error) {
	var br *badRequest
	if errors.As(err, &br) {
		httpError(w, http.StatusBadRequest, "%s", br.msg)
		return
	}
	httpError(w, http.StatusInternalServerError, "%v", err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore unchecked-error the status line is already sent; an encode failure means the client is gone and cannot be answered
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
