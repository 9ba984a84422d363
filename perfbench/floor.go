package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/service"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// floor is the production test floor of the paper's Fig. 4 setting, served
// the way neurotestd serves it: two closed-loop clients drive an in-process
// daemon over loopback HTTP. Three ops in four are population sessions jobs
// that alternate between faulty and good dies; one in four is a warm
// coverage job. An op ends when the job's stream returns its terminal line.
var floor = workload{
	name:      "floor",
	clients:   floorClients,
	warmup:    8,
	setupReps: 7,
	setup:     setupFloor,
}

const (
	// floorClients is the number of closed-loop clients, one per CPU of
	// the 2-core machine the benchmark is sized for.
	floorClients = 2
	floorChips   = 8
	floorSample  = 256
	floorSigma   = 0.1
	// The ops cycle through this many distinct job bodies of each kind, so
	// each body's tallies can be checked against the library after the
	// window at a bounded cost.
	floorSessionBodies  = 32
	floorCoverageBodies = 4
)

var floorArch = []int{576, 256, 32, 10}

// jobBody is one distinct job request.
type jobBody struct {
	kind   string // "sessions" or "coverage"
	seed   uint64
	faulty bool
	json   []byte
}

// jobStatus is the part of a neurotestd job status the benchmark reads.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// jobTally holds the integer tallies of a sessions or coverage job result.
type jobTally struct {
	Chips         int `json:"chips"`
	Pass          int `json:"pass"`
	Fail          int `json:"fail"`
	Quarantine    int `json:"quarantine"`
	ItemsRun      int `json:"items_run"`
	BaselineItems int `json:"baseline_items"`
	Retests       int `json:"retests"`
	DroppedReads  int `json:"dropped_reads"`
	Faults        int `json:"faults"`
	Detected      int `json:"detected"`
	Errored       int `json:"errored"`
}

type floorInstance struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	bodies []jobBody // sessions bodies first, then coverage bodies

	mu      sync.Mutex
	tallies map[int]jobTally // first tally seen per body index

	scrape0 map[string]float64
	memo0   faultsim.Stats
	lib     *library // built by verify, outside the window
}

// setupFloor boots the daemon on a loopback listener, generates the
// artifact (a cache miss) and runs one coverage job, which builds the
// artifact's golden test equipment.
func setupFloor(seed uint64) (instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &floorInstance{
		srv:    service.New(service.DefaultConfig()),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     floorClients,
			MaxIdleConnsPerHost: floorClients,
		}},
		tallies: map[int]jobTally{},
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()

	arch, err := json.Marshal(floorArch)
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	for b := 0; b < floorSessionBodies; b++ {
		s := mix(seed, 100+b)
		f.bodies = append(f.bodies, jobBody{kind: "sessions", seed: s, faulty: b%2 == 0, json: []byte(fmt.Sprintf(
			`{"arch":%s,"chips":%d,"faulty":%v,"sample":%d,"variation_sigma":%v,"seed":%d}`,
			arch, floorChips, b%2 == 0, floorSample, floorSigma, s))})
	}
	for b := 0; b < floorCoverageBodies; b++ {
		s := mix(seed, 200+b)
		f.bodies = append(f.bodies, jobBody{kind: "coverage", seed: s, json: []byte(fmt.Sprintf(
			`{"arch":%s,"sample":%d,"seed":%d}`, arch, floorSample, s))})
	}

	var gen struct {
		Source string `json:"source"`
	}
	if err := f.postJSON("/v1/generate", []byte(fmt.Sprintf(`{"arch":%s}`, arch)), http.StatusOK, &gen); err != nil {
		return nil, errors.Join(err, f.close())
	}
	if gen.Source != "miss" {
		return nil, errors.Join(fmt.Errorf("generate answered from %q, want a cache miss", gen.Source), f.close())
	}
	st, _, err := f.runJob("/v1/coverage", []byte(fmt.Sprintf(`{"arch":%s,"sample":%d,"seed":%d}`, arch, floorSample, mix(seed, 300))))
	if err == nil {
		_, err = checkJob(st)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("priming coverage job: %w", err), f.close())
	}
	if n := f.srv.Metrics().GoldenBuilds.Load(); n != 1 {
		return nil, errors.Join(fmt.Errorf("%d golden builds after set-up, want 1", n), f.close())
	}
	return f, nil
}

// body maps op id to its job body: ids 3, 7, 11, … are coverage jobs and
// the rest are sessions jobs, which alternate between faulty and good dies.
func (f *floorInstance) body(id int) int {
	if id%4 == 3 {
		return floorSessionBodies + (id/4)%floorCoverageBodies
	}
	return (id/4*3 + id%4) % floorSessionBodies
}

func (f *floorInstance) postJSON(path string, body []byte, want int, v any) error {
	resp, err := f.client.Post(f.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("POST %s: status %d, reading body: %w", path, resp.StatusCode, err)
		}
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("POST %s: decoding response: %w", path, err)
	}
	return nil
}

// runJob submits a job and follows its stream to the terminal line. It
// returns that status and when the submit began and the stream ended.
func (f *floorInstance) runJob(path string, body []byte) (st jobStatus, t [2]time.Time, err error) {
	t[0] = time.Now()
	var sub jobStatus
	if err := f.postJSON(path, body, http.StatusAccepted, &sub); err != nil {
		return st, t, err
	}
	resp, err := f.client.Get(f.base + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		return st, t, fmt.Errorf("streaming job %s: %w", sub.ID, err)
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	t[1] = time.Now()
	if err := sc.Err(); err != nil {
		return st, t, fmt.Errorf("streaming job %s: %w", sub.ID, err)
	}
	if err := json.Unmarshal(last, &st); err != nil {
		return st, t, fmt.Errorf("job %s terminal line: %w", sub.ID, err)
	}
	return st, t, nil
}

// checkJob checks that a job ended done, with timestamps, and that no part
// of its campaign errored, and returns the job's tallies.
func checkJob(st jobStatus) (jobTally, error) {
	var tally jobTally
	if st.State != "done" {
		return tally, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Started == nil || st.Finished == nil {
		return tally, fmt.Errorf("job %s has no start or finish time", st.ID)
	}
	if err := json.Unmarshal(st.Result, &tally); err != nil {
		return tally, fmt.Errorf("job %s result: %w", st.ID, err)
	}
	if tally.Errored != 0 {
		return tally, fmt.Errorf("job %s: %d errored", st.ID, tally.Errored)
	}
	return tally, nil
}

func (f *floorInstance) op(id int, tr *opTrace) error {
	b := f.body(id)
	body := f.bodies[b]
	st, t, err := f.runJob("/v1/"+body.kind, body.json)
	if err != nil {
		return err
	}
	tally, err := checkJob(st)
	if err != nil {
		return err
	}
	f.mu.Lock()
	first, seen := f.tallies[b]
	if !seen {
		f.tallies[b] = tally
	}
	f.mu.Unlock()
	if seen && tally != first {
		return fmt.Errorf("%s body %d: tallies %+v differ from an earlier run's %+v", body.kind, b, tally, first)
	}
	// The daemon's job timestamps split the client's latency into the
	// request and stream overhead, the queue wait and the job run.
	tr.add("service.http", t[0], st.Created)
	tr.add("service.queue_wait", st.Created, *st.Started)
	tr.add("service."+body.kind+"_run", *st.Started, *st.Finished)
	tr.add("service.http", *st.Finished, t[1])
	return nil
}

// scrape reads the daemon's /metrics exposition into series → value.
func (f *floorInstance) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

func (f *floorInstance) beginWindow() error {
	var err error
	f.scrape0, err = f.scrape()
	f.memo0 = faultsim.Snapshot()
	return err
}

// library holds the same campaign the daemon runs, built through the
// library: the 4-layer model, its merged no-variation suite and an ATE.
type library struct {
	model *neurotest.Model
	ate   *tester.ATE
	vary  variation.Model
}

func newLibrary() (*library, error) {
	m := neurotest.NewModel(floorArch...)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		return nil, err
	}
	return &library{model: m, ate: tester.New(suite.Merged, nil), vary: variation.OfTheta(floorSigma, m.Params.Theta)}, nil
}

// jobFaults is the fault sample a job draws: a coverage job's campaign, or
// the defects a faulty sessions job's dies carry (the daemon offsets that
// seed by 41). A good sessions job draws none.
func (l *library) jobFaults(body jobBody) []fault.Fault {
	switch {
	case body.kind == "coverage":
		return tester.SampleFaults(l.model.Arch, fault.Kinds(), floorSample, body.seed)
	case body.faulty:
		return tester.SampleFaults(l.model.Arch, fault.Kinds(), floorSample, body.seed+41)
	}
	return nil
}

func (l *library) tally(body jobBody) jobTally {
	faults := l.jobFaults(body)
	if body.kind == "coverage" {
		cov := l.ate.MeasureCoverage(faults, l.model.Values)
		return jobTally{Faults: cov.Total, Detected: cov.Detected, Errored: len(cov.Errors)}
	}
	var mods func(i int) *snn.Modifiers
	if body.faulty {
		mods = func(i int) *snn.Modifiers { return faults[i%len(faults)].Modifiers(l.model.Values) }
	}
	s := l.ate.MeasureSessions(floorChips, mods, unreliable.Reliable(), l.vary, tester.RetestPolicy{}, body.seed)
	return jobTally{Chips: s.Chips, Pass: s.Pass, Fail: s.Fail, Quarantine: s.Quarantine, ItemsRun: s.ItemsRun,
		BaselineItems: s.BaselineItems, Retests: s.Retests, DroppedReads: s.DroppedReads, Errored: len(s.Errors)}
}

// verify runs every distinct job body the window used through the library
// and checks that its tallies equal the daemon's.
func (f *floorInstance) verify(w io.Writer) error {
	lib, err := newLibrary()
	if err != nil {
		return err
	}
	f.lib = lib
	f.mu.Lock()
	defer f.mu.Unlock()
	for b, body := range f.bodies {
		got, ok := f.tallies[b]
		if !ok {
			continue
		}
		if want := lib.tally(body); got != want {
			return fmt.Errorf("%s body %d: daemon tallies %+v, library %+v", body.kind, b, got, want)
		}
	}
	fmt.Fprintf(w, "floor: %d distinct job bodies match the library\n", len(f.tallies))
	return nil
}

// chipSeed and varySalt mirror the tester's per-chip seed derivation, so a
// probe replays exactly the dies a sessions job tested.
func chipSeed(seed uint64, i int) uint64 {
	return (seed + 0x9E3779B97F4A7C15*uint64(i+1)) ^ 0xD1B54A32D192ED03
}

const varySalt = 0x94D049BB133111EB

// replayDie tests one die of a sessions job through the library, in the
// daemon's order: sample the die's error tensor, program each
// configuration, run each item and stop at the first mismatch. It reports
// whether the die passed.
func (l *library) replayDie(p *opTrace, mods *snn.Modifiers, seed uint64) bool {
	ts := l.ate.TestSet()
	p.enter("variation.sample")
	errs := l.vary.SampleError(ts.Arch, stats.NewRNG(seed^varySalt))
	p.leave()
	cfg := -1
	var sim *snn.Simulator
	for i, it := range ts.Items {
		if it.ConfigIndex != cfg {
			p.enter("variation.apply")
			sim = snn.NewSimulator(errs.ApplyTo(ts.Configs[it.ConfigIndex]))
			cfg = it.ConfigIndex
			p.leave()
		}
		p.enter("snn.forward")
		res := sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods)
		p.leave()
		if !res.Equal(l.ate.Golden(i)) {
			return false
		}
	}
	return true
}

func (f *floorInstance) layerMetrics(tr *tracer, sum traceSummary, m map[string]float64) error {
	s1, err := f.scrape()
	if err != nil {
		return err
	}
	d := func(series string) float64 { return s1[series] - f.scrape0[series] }
	perCount := func(name string) float64 {
		if n := d(name + "_count"); n > 0 {
			return 1000 * d(name+"_sum") / n
		}
		return 0
	}
	m["service.queue_wait_ms"] = perCount("neurotestd_queue_wait_seconds")
	m["service.sessions_run_ms"] = sum.byName["service.sessions_run"].meanMS()
	m["service.coverage_run_ms"] = sum.byName["service.coverage_run"].meanMS()
	if sum.ops > 0 {
		m["service.http_ms"] = ms(sum.byName["service.http"].total) / float64(sum.ops)
	}
	if hits, misses := d("neurotestd_cache_hits_total"), d("neurotestd_cache_misses_total"); hits+misses > 0 {
		m["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["service.golden_builds"] = s1["neurotestd_golden_builds_total"]
	m["tester.session_ms"] = perCount("tester_session_seconds")
	m["faultsim.memo_hit_ratio"] = memoDelta(f.memo0)

	// Probes: the fault sampling of each job body, and every die of each
	// sessions body replayed through the library.
	lib := f.lib
	if lib == nil {
		return errors.New("floor probes need the library verify builds")
	}
	var covFaults []fault.Fault
	dies := 0
	for b, body := range f.bodies {
		p := tr.probe()
		var faults []fault.Fault
		if body.kind == "coverage" || body.faulty {
			p.enter("tester.sample_faults")
			faults = lib.jobFaults(body)
			p.leave()
		}
		if body.kind == "coverage" {
			covFaults = faults
		} else {
			pass := 0
			for i := 0; i < floorChips; i++ {
				var mods *snn.Modifiers
				if body.faulty {
					mods = faults[i%len(faults)].Modifiers(lib.model.Values)
				}
				if lib.replayDie(p, mods, chipSeed(body.seed, i)) {
					pass++
				}
				dies++
			}
			f.mu.Lock()
			got, ok := f.tallies[b]
			f.mu.Unlock()
			if ok && got.Pass != pass {
				p.finish()
				return fmt.Errorf("sessions body %d: replay passes %d dies, daemon %d", b, pass, got.Pass)
			}
		}
		p.finish()
	}
	probes := tr.summarize()
	m["tester.sample_faults_ms"] = probes.byName["tester.sample_faults"].meanMS()
	for _, name := range []string{"variation.sample", "variation.apply", "snn.forward"} {
		m[name+"_ms"] = ms(probes.byName[name].total) / float64(dies)
	}
	setPacking(m, covFaults)
	return nil
}

// close shuts the daemon down and waits for its listener to return.
func (f *floorInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Close()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.client.CloseIdleConnections()
	return err
}
