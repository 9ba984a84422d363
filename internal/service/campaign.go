package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"neurotest/internal/cluster"
	"neurotest/internal/fault"
	"neurotest/internal/obs"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// This file holds the one body of each shardable campaign kind (coverage,
// sessions), shared by every node role (DESIGN.md §14):
//
//   - a standalone node runs the request as the one shard holding every
//     index;
//   - a worker runs the shard it is sent (POST /v1/shards/{kind});
//   - a coordinator places the same indices on the ring and merges the
//     workers' parts.
//
// Per kind there is one validation, called by the campaign endpoint and
// its shard endpoint alike, one run, which measures a list of global
// indices into a shard part, and one merge, which builds the job result
// from the parts. A standalone node marshals its one part and merges it
// exactly like a worker's JSON. Every per-item seed derives from the item's
// global index, never from the shard holding it, so a single node and the
// ring agree bit for bit by construction.

// campaign is one validated request of a shardable campaign kind.
type campaign interface {
	// spec is the suite the campaign runs on.
	spec() SuiteSpec
	// label is the attribute the campaign's root span carries.
	label() (key, value string)
	// size is the population: the campaign's items are the global indices
	// [0, size).
	size() int
	// key is item i's placement key on the ring.
	key(i int) string
	// run measures the items at idx, global indices strictly ascending
	// within [0, size), on ate and returns the shard part.
	run(ctx context.Context, ate *tester.ATE, idx []int) (any, error)
	// merge folds the shard parts, JSON-encoded as a worker returns them,
	// into the job result.
	merge(parts []json.RawMessage) (any, error)
}

// serveCampaign serves POST /v1/{name}. A standalone node runs the
// validated request as the one shard holding every index; a coordinator
// places the same indices on the ring. Both fold the parts with the kind's
// merge.
func serveCampaign[R any](s *Server, name string, validate func(R) (campaign, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !s.decode(w, r, &req) {
			return
		}
		c, err := validate(req)
		if err != nil {
			s.fail(w, err)
			return
		}
		if s.coord != nil {
			raw, err := json.Marshal(req)
			if err != nil {
				s.fail(w, err)
				return
			}
			s.submit(w, r, name, s.fanOut(name, raw, c))
			return
		}
		s.submit(w, r, name, s.fixtureJob(c.spec(), name, func(ctx context.Context, f fixture) (any, error) {
			f.root.SetAttr(c.label())
			every := make([]int, c.size())
			for i := range every {
				every[i] = i
			}
			part, err := c.run(ctx, f.ate, every)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(part)
			if err != nil {
				return nil, err
			}
			return c.merge([]json.RawMessage{raw})
		}))
	}
}

// serveShard serves POST /v1/shards/{name} on a worker. Before queueing,
// the request embedded in the shard passes the campaign endpoint's own
// validation and the shard's indices pass the shard index rule; the job
// then runs the kind's run over those indices, and its result is the part
// the coordinator merges.
func serveShard[R any](s *Server, name string, validate func(R) (campaign, error)) http.HandlerFunc {
	kind := name + "-shard"
	return func(w http.ResponseWriter, r *http.Request) {
		var sh cluster.Shard
		if !s.decode(w, r, &sh) {
			return
		}
		var req R
		if err := json.Unmarshal(sh.Request, &req); err != nil {
			s.fail(w, badf("malformed embedded campaign request: %v", err))
			return
		}
		c, err := validate(req)
		if err == nil {
			err = checkShard(sh.Index, c.size())
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		s.submit(w, r, kind, s.fixtureJob(c.spec(), kind, func(ctx context.Context, f fixture) (any, error) {
			f.root.SetAttr(c.label())
			f.root.SetAttr("items", strconv.Itoa(len(sh.Index)))
			return c.run(ctx, f.ate, sh.Index)
		}))
	}
}

// checkShard is the shard index rule: a non-empty, strictly ascending list
// of global indices inside the population [0, n) the worker derived from
// the embedded request. A repeated index would be counted twice, and one
// outside the population means coordinator and worker disagree on the
// campaign (version skew).
func checkShard(idx []int, n int) error {
	if len(idx) == 0 {
		return badf("shard carries no item indices")
	}
	for k, i := range idx {
		if i < 0 || i >= n {
			return badf("shard index %d outside the derived population [0,%d)", i, n)
		}
		if k > 0 && i <= idx[k-1] {
			return badf("shard indices must be strictly ascending (%d after %d)", i, idx[k-1])
		}
	}
	return nil
}

// fanOut is a coordinator's campaign job: every index is placed on the
// ring by its key, the workers run their shards, and the kind's merge folds
// their parts. A coordinator holds no fixture, so the job neither dwells
// nor touches the artifact cache.
func (s *Server) fanOut(name string, request json.RawMessage, c campaign) func(context.Context, *Job) (any, error) {
	return func(ctx context.Context, job *Job) (any, error) {
		ctx, root := obs.StartTrace(ctx, s.recorder, obs.TraceID(c.spec().Key()+"|"+name), name+"-fanout")
		defer root.End()
		root.SetAttr(c.label())
		keys := make([]string, c.size())
		for i := range keys {
			keys[i] = c.key(i)
		}
		root.SetAttr("items", strconv.Itoa(len(keys)))
		results, err := s.coord.Run(ctx, "/v1/shards/"+name, request, keys, job.Publish)
		if err != nil {
			return nil, err
		}
		parts := make([]json.RawMessage, len(results))
		for i, sr := range results {
			parts[i] = sr.Result
		}
		return c.merge(parts)
	}
}

// fixture is what the job prologue hands a job body.
type fixture struct {
	job  *Job
	root *obs.Span
	art  *Artifact
	ate  *tester.ATE
}

// fixtureJob wraps body in the one prologue every job that occupies a
// tester opens with: the fixture dwell, then a root span named name, a
// generate span around the artifact cache and a program span around the
// artifact's ATE. The trace ID derives from the suite key, so re-running a
// campaign yields the same trace and span IDs. The body runs under the
// root span.
func (s *Server) fixtureJob(spec SuiteSpec, name string, body func(ctx context.Context, f fixture) (any, error)) func(context.Context, *Job) (any, error) {
	return func(ctx context.Context, job *Job) (any, error) {
		if err := s.dwell(ctx); err != nil {
			return nil, err
		}
		ctx, root := obs.StartTrace(ctx, s.recorder, obs.TraceID(spec.Key()+"|"+name), name)
		defer root.End()
		_, gen := obs.StartSpan(ctx, "generate")
		art, src, err := s.cache.Suite(spec)
		gen.SetAttr("source", src.String())
		gen.End()
		if err != nil {
			return nil, err
		}
		_, prog := obs.StartSpan(ctx, "program")
		ate := art.ATE()
		prog.End()
		return body(ctx, fixture{job: job, root: root, art: art, ate: ate})
	}
}

// dwell simulates the physical tester fixture time a job occupies the
// equipment for (probe contact, thermal settle) before compute runs — the
// cost component that parallelizes only by adding testers. fixtureJob
// applies it to every job that runs on a tester; the coordinator's fan-out
// job holds no fixture and never dwells.
func (s *Server) dwell(ctx context.Context) error {
	d := s.cfg.HWDwell
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// defects draws the fault sample the faulty dies of a sessions, monitor or
// repair job carry: at most max faults of the spec's kinds (0 = their whole
// universes), seeded seed+41.
func (s SuiteSpec) defects(max int, seed uint64) ([]fault.Fault, error) {
	faults := tester.SampleFaults(s.Arch, s.Kinds(), max, seed+41)
	if len(faults) == 0 {
		return nil, badf("empty fault universe for %v", s.Arch)
	}
	return faults, nil
}

// --- coverage -------------------------------------------------------------

// coveragePart is one shard's coverage tally. Undetected faults travel as
// global indices into the fault sample, so the merge restores the order a
// single node reports (ascending index) whichever worker ran which shard.
type coveragePart struct {
	Faults          int   `json:"faults"`
	Detected        int   `json:"detected"`
	UndetectedIndex []int `json:"undetected_index,omitempty"`
	Errored         int   `json:"errored"`
}

// coverageCampaign is a validated coverage request. Its items are the
// fault sample, in sample order.
type coverageCampaign struct {
	req    coverageRequest
	suite  SuiteSpec
	n      int
	sample []fault.Fault // drawn on first use, inside the job
}

// newCoverage validates a coverage request.
func (s *Server) newCoverage(req coverageRequest) (campaign, error) {
	spec, err := s.resolveSpec(req.generateRequest)
	if err != nil {
		return nil, err
	}
	if req.Sample < 0 {
		return nil, badf("sample must be >= 0 (got %d)", req.Sample)
	}
	return &coverageCampaign{req: req, suite: spec, n: tester.SampleSize(spec.Arch, spec.Kinds(), req.Sample)}, nil
}

// faults returns the campaign's fault sample, drawing it on first use (a
// job uses its campaign from one goroutine).
func (c *coverageCampaign) faults() []fault.Fault {
	if c.sample == nil {
		c.sample = tester.SampleFaults(c.suite.Arch, c.suite.Kinds(), c.req.Sample, c.req.Seed)
	}
	return c.sample
}

func (c *coverageCampaign) spec() SuiteSpec         { return c.suite }
func (c *coverageCampaign) label() (string, string) { return "kind", c.suite.KindName() }
func (c *coverageCampaign) size() int               { return c.n }
func (c *coverageCampaign) key(i int) string        { return c.faults()[i].String() }

func (c *coverageCampaign) run(ctx context.Context, ate *tester.ATE, idx []int) (any, error) {
	// idx ascends strictly within the sample, so at full length it is the
	// whole sample.
	sub := c.faults()
	if len(idx) < len(sub) {
		all := sub
		sub = make([]fault.Fault, len(idx))
		for k, i := range idx {
			sub[k] = all[i]
		}
	}
	cov, err := ate.MeasureCoverageContext(ctx, sub, c.suite.Model().Values)
	if err != nil {
		return nil, err
	}
	part := coveragePart{Faults: cov.Total, Detected: cov.Detected, Errored: len(cov.Errors)}
	// cov.Undetected keeps the input order, so one walk over sub finds
	// each undetected fault's global index.
	und := cov.Undetected
	for k, f := range sub {
		if len(und) > 0 && und[0] == f {
			part.UndetectedIndex = append(part.UndetectedIndex, idx[k])
			und = und[1:]
		}
	}
	return part, nil
}

func (c *coverageCampaign) merge(parts []json.RawMessage) (any, error) {
	res := coverageJobResult{SuiteKey: c.suite.Key(), Kind: c.suite.KindName()}
	var undetected []int
	for i, raw := range parts {
		var p coveragePart
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("service: shard %d returned malformed coverage result: %w", i, err)
		}
		res.Faults += p.Faults
		res.Detected += p.Detected
		res.Errored += p.Errored
		undetected = append(undetected, p.UndetectedIndex...)
	}
	res.Coverage = tester.CoverageResult{Total: res.Faults, Detected: res.Detected}.Coverage()
	sort.Ints(undetected)
	sample := c.faults()
	for _, i := range undetected[:min(len(undetected), 10)] {
		if i < 0 || i >= len(sample) {
			return nil, fmt.Errorf("service: a shard reported undetected fault %d outside the sample [0,%d)", i, len(sample))
		}
		res.Undetected = append(res.Undetected, sample[i].String())
	}
	return res, nil
}

// --- sessions -------------------------------------------------------------

// sessionsPart is one shard's session tally: the integer fields of
// tester.SessionStats, which merge exactly by summation, and the count of
// sessions that errored.
type sessionsPart struct {
	Chips         int `json:"chips"`
	Pass          int `json:"pass"`
	Fail          int `json:"fail"`
	Quarantine    int `json:"quarantine"`
	ItemsRun      int `json:"items_run"`
	BaselineItems int `json:"baseline_items"`
	Retests       int `json:"retests"`
	DroppedReads  int `json:"dropped_reads"`
	Errored       int `json:"errored"`
}

// sessionsCampaign is a validated sessions request. Its items are the dies
// of the population.
type sessionsCampaign struct {
	req   sessionsRequest
	suite SuiteSpec
	prof  unreliable.Profile
}

// newSessions validates a sessions request.
func (s *Server) newSessions(req sessionsRequest) (campaign, error) {
	spec, err := s.resolveSpec(req.generateRequest)
	if err != nil {
		return nil, err
	}
	if req.Chips < 1 {
		return nil, badf("chips must be >= 1 (got %d)", req.Chips)
	}
	if req.Sample < 0 || req.MaxRetests < 0 || req.Tolerance < 0 || req.VariationSigma < 0 {
		return nil, badf("sample, max_retests, tolerance and variation_sigma must be >= 0")
	}
	prof, err := resolveProfile(req.profileRequest)
	if err != nil {
		return nil, err
	}
	return &sessionsCampaign{req: req, suite: spec, prof: prof}, nil
}

func (c *sessionsCampaign) spec() SuiteSpec         { return c.suite }
func (c *sessionsCampaign) label() (string, string) { return "profile", c.prof.String() }
func (c *sessionsCampaign) size() int               { return c.req.Chips }
func (c *sessionsCampaign) key(i int) string        { return fmt.Sprintf("chip|%d|%d", c.req.Seed, i) }

func (c *sessionsCampaign) run(ctx context.Context, base *tester.ATE, idx []int) (any, error) {
	ate, err := base.CloneWithTolerance(c.req.Tolerance)
	if err != nil {
		return nil, err
	}
	model := c.suite.Model()
	var mods func(i int) *snn.Modifiers
	if c.req.Faulty {
		faults, err := c.suite.defects(c.req.Sample, c.req.Seed)
		if err != nil {
			return nil, err
		}
		mods = func(i int) *snn.Modifiers { return faults[i%len(faults)].Modifiers(model.Values) }
	}
	vary := variation.None()
	if c.req.VariationSigma > 0 {
		vary = variation.OfTheta(c.req.VariationSigma, model.Params.Theta)
	}
	policy := tester.RetestPolicy{MaxRetests: c.req.MaxRetests, Vote: c.req.Vote}
	stats, err := ate.MeasureSessionsAtContext(ctx, idx, mods, c.prof, vary, policy, c.req.Seed)
	if err != nil {
		return nil, err
	}
	return sessionsPart{
		Chips: stats.Chips, Pass: stats.Pass, Fail: stats.Fail, Quarantine: stats.Quarantine,
		ItemsRun: stats.ItemsRun, BaselineItems: stats.BaselineItems, Retests: stats.Retests,
		DroppedReads: stats.DroppedReads, Errored: len(stats.Errors),
	}, nil
}

func (c *sessionsCampaign) merge(parts []json.RawMessage) (any, error) {
	stats := make([]tester.SessionStats, len(parts))
	errored := 0
	for i, raw := range parts {
		var p sessionsPart
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("service: shard %d returned malformed sessions result: %w", i, err)
		}
		stats[i] = tester.SessionStats{
			Chips: p.Chips, Pass: p.Pass, Fail: p.Fail, Quarantine: p.Quarantine,
			ItemsRun: p.ItemsRun, BaselineItems: p.BaselineItems, Retests: p.Retests,
			DroppedReads: p.DroppedReads,
		}
		errored += p.Errored
	}
	st := tester.MergeSessionStats(stats...)
	return sessionsJobResult{
		SuiteKey:       c.suite.Key(),
		Profile:        c.prof.String(),
		Chips:          st.Chips,
		Pass:           st.Pass,
		Fail:           st.Fail,
		Quarantine:     st.Quarantine,
		PassRate:       st.PassRate(),
		FailRate:       st.FailRate(),
		QuarantineRate: st.QuarantineRate(),
		ItemsRun:       st.ItemsRun,
		BaselineItems:  st.BaselineItems,
		Retests:        st.Retests,
		DroppedReads:   st.DroppedReads,
		Amplification:  st.Amplification(),
		Errored:        errored,
	}, nil
}
