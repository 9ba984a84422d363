package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
)

// newTestServer spins up the daemon behind httptest and tears it down after
// the test (jobs cancelled, workers drained).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.QueueCapacity = 8
	cfg.Workers = 2
	return cfg
}

// postJSON posts a body and decodes the JSON response into out (if non-nil).
func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp
}

// pollJob polls a job until it reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if resp := getJSON(t, base+"/v1/jobs/"+id, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("polling job %s: HTTP %d", id, resp.StatusCode)
		}
		if JobStateFromString(st.State).Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// resultField digs a field out of a JSON-round-tripped job result.
func resultField(t *testing.T, st JobStatus, field string) any {
	t.Helper()
	m, ok := st.Result.(map[string]any)
	if !ok {
		t.Fatalf("job result is %T, want object: %+v", st.Result, st)
	}
	return m[field]
}

func TestServiceEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())

	// Generate a suite: first time is a miss.
	var gen generateResponse
	resp := postJSON(t, ts.URL+"/v1/generate", `{"arch":[12,8,4]}`, &gen)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: HTTP %d", resp.StatusCode)
	}
	if gen.Cached || gen.Source != "miss" {
		t.Errorf("first generate: cached=%v source=%q, want fresh miss", gen.Cached, gen.Source)
	}
	if gen.Configs != 9 || gen.Kind != "all" || gen.Key == "" {
		t.Errorf("generate summary: %+v", gen.SuiteSummary)
	}

	// Fetch the binary artifact and round-trip it through the codec.
	aresp, err := http.Get(ts.URL + gen.Href)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if err != nil || aresp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: HTTP %d, %v", aresp.StatusCode, err)
	}
	if aresp.ContentLength != int64(gen.SizeBytes) || len(blob) != gen.SizeBytes {
		t.Errorf("Content-Length %d, size_bytes %d, body %d bytes: want all equal",
			aresp.ContentLength, gen.SizeBytes, len(blob))
	}
	set, err := pattern.ReadBinary(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("served artifact does not decode: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("served artifact invalid: %v", err)
	}
	if set.NumConfigs() != gen.Configs || set.NumPatterns() != gen.Patterns {
		t.Errorf("artifact (%d cfg, %d pat) disagrees with summary (%d, %d)",
			set.NumConfigs(), set.NumPatterns(), gen.Configs, gen.Patterns)
	}

	// The same request again is served from cache, byte-identically.
	var again generateResponse
	postJSON(t, ts.URL+"/v1/generate", `{"arch":[12,8,4]}`, &again)
	if !again.Cached || again.Source != "hit" {
		t.Errorf("repeat generate: cached=%v source=%q, want cache hit", again.Cached, again.Source)
	}
	if again.Key != gen.Key {
		t.Errorf("repeat key %s != first key %s", again.Key, gen.Key)
	}
	aresp2, err := http.Get(ts.URL + gen.Href)
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := io.ReadAll(aresp2.Body)
	aresp2.Body.Close()
	if !bytes.Equal(blob, blob2) {
		t.Error("artifact bytes changed between identical requests")
	}
	// HEAD sends the download's headers and no body: the handler returns
	// before encoding, so the recorder, which keeps whatever is written,
	// stays empty.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodHead, gen.Href, nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != fmt.Sprint(gen.SizeBytes) ||
		rec.Header().Get("ETag") != aresp.Header.Get("ETag") || rec.Body.Len() != 0 {
		t.Errorf("HEAD %s: HTTP %d, Content-Length %q, ETag %q, %d body bytes; want 200, %d, %q, none",
			gen.Href, rec.Code, rec.Header().Get("Content-Length"), rec.Header().Get("ETag"), rec.Body.Len(),
			gen.SizeBytes, aresp.Header.Get("ETag"))
	}

	// Submit a coverage campaign and poll it to completion.
	var job JobStatus
	resp = postJSON(t, ts.URL+"/v1/coverage", `{"arch":[12,8,4],"kind":"SWF"}`, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coverage submit: HTTP %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, job.ID)
	}
	done := pollJob(t, ts.URL, job.ID)
	if done.State != "done" {
		t.Fatalf("coverage job ended %q (%s)", done.State, done.Error)
	}
	if cov := resultField(t, done, "coverage_pct"); cov != 100.0 {
		t.Errorf("SWF coverage = %v, want 100 (the paper's suites are complete)", cov)
	}
	if errored := resultField(t, done, "errored"); errored != 0.0 {
		t.Errorf("errored faults = %v, want 0", errored)
	}

	// The job listing knows it, and metrics reflect the session so far.
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &listing)
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != job.ID {
		t.Errorf("job listing: %+v", listing)
	}
	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics?format=json", &metrics)
	if metrics["cache_hits"] < 1 || metrics["cache_misses"] != 2 || metrics["jobs_done"] != 1 {
		t.Errorf("metrics after e2e: hits=%d misses=%d done=%d (want >=1, 2, 1)",
			metrics["cache_hits"], metrics["cache_misses"], metrics["jobs_done"])
	}
	if metrics["cache_entries"] != 2 || metrics["queue_capacity"] != 8 {
		t.Errorf("metrics gauges: entries=%d capacity=%d", metrics["cache_entries"], metrics["queue_capacity"])
	}

	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: HTTP %d, %v", resp.StatusCode, health)
	}
}

func TestCoverageJobsShareGolden(t *testing.T) {
	// Repeated campaign jobs on one artifact must simulate the good-chip
	// traces exactly once: the cached ATE memoizes its faultsim.Golden, and
	// tolerance clones (sessions jobs) share it rather than rebuilding.
	_, ts := newTestServer(t, testConfig())
	before := faultsim.Snapshot()
	for i := 0; i < 2; i++ {
		var job JobStatus
		resp := postJSON(t, ts.URL+"/v1/coverage", `{"arch":[10,6,4],"kind":"ESF"}`, &job)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("coverage submit %d: HTTP %d", i, resp.StatusCode)
		}
		done := pollJob(t, ts.URL, job.ID)
		if done.State != "done" {
			t.Fatalf("coverage job %d ended %q (%s)", i, done.State, done.Error)
		}
		if cov := resultField(t, done, "coverage_pct"); cov != 100.0 {
			t.Errorf("coverage job %d = %v%%, want 100", i, cov)
		}
	}
	var job JobStatus
	resp := postJSON(t, ts.URL+"/v1/sessions", `{"arch":[10,6,4],"kind":"ESF","chips":2,"tolerance":1}`, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sessions submit: HTTP %d", resp.StatusCode)
	}
	if done := pollJob(t, ts.URL, job.ID); done.State != "done" {
		t.Fatalf("sessions job ended %q (%s)", done.State, done.Error)
	}
	if delta := faultsim.Snapshot().GoldenBuilds - before.GoldenBuilds; delta != 1 {
		t.Errorf("golden builds across three jobs on one artifact = %d, want 1", delta)
	}
}

func TestServiceSingleflightOverHTTP(t *testing.T) {
	// N racing identical generate requests must trigger exactly one
	// generation; the responses all name the same artifact.
	_, ts := newTestServer(t, testConfig())
	const n = 8
	keys := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
				strings.NewReader(`{"arch":[12,8,4],"kind":"NASF"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var gen generateResponse
			if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
				t.Error(err)
				return
			}
			keys[i] = gen.Key
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("request %d got key %s, want %s", i, keys[i], keys[0])
		}
	}
	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics?format=json", &metrics)
	if metrics["cache_misses"] != 1 {
		t.Errorf("cache_misses = %d, want 1 for %d racing requests", metrics["cache_misses"], n)
	}
	if folded := metrics["cache_hits"] + metrics["singleflight_dedups"]; folded != n-1 {
		t.Errorf("hits+dedups = %d, want %d", folded, n-1)
	}
}

func TestServiceBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCapacity = 1
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)

	// Park a job on the only worker and another in the only buffer slot, so
	// the next submission over HTTP must be refused.
	release := make(chan struct{})
	defer close(release)
	park := func(ctx context.Context, _ *Job) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	running, err := s.queue.SubmitJob("park", park)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	if _, err := s.queue.SubmitJob("park", park); err != nil {
		t.Fatal(err)
	}

	var body map[string]string
	resp := postJSON(t, ts.URL+"/v1/coverage", `{"arch":[12,8,4],"kind":"SWF"}`, &body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(body["error"], "queue full") {
		t.Errorf("503 body: %v", body)
	}

	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics?format=json", &metrics)
	if metrics["jobs_rejected"] != 1 || metrics["queue_depth"] != 1 || metrics["workers_busy"] != 1 {
		t.Errorf("backpressure metrics: rejected=%d depth=%d busy=%d",
			metrics["jobs_rejected"], metrics["queue_depth"], metrics["workers_busy"])
	}
}

func TestServiceCancelRunningCampaign(t *testing.T) {
	// A sessions campaign big enough to still be running when the DELETE
	// arrives; cancellation must propagate through the context into the
	// tester worker pool and surface as state "cancelled".
	_, ts := newTestServer(t, testConfig())

	var job JobStatus
	resp := postJSON(t, ts.URL+"/v1/sessions",
		`{"arch":[8,6,4],"chips":500000,"tolerance":0,"vote":true}`, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sessions submit: HTTP %d", resp.StatusCode)
	}

	// Wait for it to actually start, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &st)
		if st.State == "running" {
			break
		}
		if JobStateFromString(st.State).Terminal() {
			t.Fatalf("job finished before it could be cancelled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", dresp.StatusCode)
	}

	st := pollJob(t, ts.URL, job.ID)
	if st.State != "cancelled" {
		t.Fatalf("cancelled campaign ended %q (%s)", st.State, st.Error)
	}
	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics?format=json", &metrics)
	if metrics["jobs_cancelled"] != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", metrics["jobs_cancelled"])
	}
}

func TestServiceStreamEmitsTerminalLine(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	var job JobStatus
	resp := postJSON(t, ts.URL+"/v1/coverage", `{"arch":[8,6,4],"kind":"NASF"}`, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coverage submit: HTTP %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var states []string
	var last JobStatus
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		states = append(states, last.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Fatalf("stream states %v, want to end in done", states)
	}
	if resultField(t, last, "coverage_pct") != 100.0 {
		t.Errorf("terminal stream line result: %+v", last.Result)
	}
}

// TestServiceStreamStateLeadsEvents: a client that connects to a running
// job whose body has already published events reads the "running" status
// first, then the events in publish order, then the terminal status.
func TestServiceStreamStateLeadsEvents(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	const nEvents = 5
	published, release := make(chan struct{}), make(chan struct{})
	job, err := s.queue.SubmitJob("gated", func(ctx context.Context, j *Job) (any, error) {
		for i := 0; i < nEvents; i++ {
			j.Publish(map[string]int{"tick": i})
		}
		close(published)
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-published
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	// line names a stream line: its state for a status, "tick N" for an
	// event.
	line := func() string {
		var v struct {
			State string `json:"state"`
			Tick  *int   `json:"tick"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if v.Tick != nil {
			return fmt.Sprintf("tick %d", *v.Tick)
		}
		return v.State
	}
	var got []string
	// The body stays gated until the first wake's lines are read, so the
	// stream holds them before the job can finish.
	for len(got) < nEvents+1 && sc.Scan() {
		got = append(got, line())
	}
	close(release)
	for sc.Scan() {
		got = append(got, line())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"running"}
	for i := 0; i < nEvents; i++ {
		want = append(want, fmt.Sprintf("tick %d", i))
	}
	want = append(want, "done")
	if !slices.Equal(got, want) {
		t.Errorf("stream lines %q, want %q", got, want)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/generate", `{`, http.StatusBadRequest},
		{"missing arch", "/v1/generate", `{}`, http.StatusBadRequest},
		{"bad arch", "/v1/generate", `{"arch":[5]}`, http.StatusBadRequest},
		{"unknown kind", "/v1/generate", `{"arch":[12,8,4],"kind":"XYZ"}`, http.StatusBadRequest},
		{"bad quant bits", "/v1/generate", `{"arch":[12,8,4],"quant":{"bits":99}}`, http.StatusBadRequest},
		{"bad granularity", "/v1/generate", `{"arch":[12,8,4],"quant":{"bits":4,"granularity":"weird"}}`, http.StatusBadRequest},
		{"huge arch", "/v1/generate", `{"arch":[100000,100000]}`, http.StatusBadRequest},
		{"negative sample", "/v1/coverage", `{"arch":[12,8,4],"sample":-1}`, http.StatusBadRequest},
		{"campaign unknown kind", "/v1/coverage", `{"arch":[12,8,4],"kind":"XYZ"}`, http.StatusBadRequest},
		{"no chips", "/v1/sessions", `{"arch":[12,8,4]}`, http.StatusBadRequest},
		{"bad activation", "/v1/sessions", `{"arch":[12,8,4],"chips":5,"activation_p":1.5}`, http.StatusBadRequest},
		{"bad drop", "/v1/sessions", `{"arch":[12,8,4],"chips":5,"drop_p":1.0}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var body map[string]string
		resp := postJSON(t, ts.URL+tc.path, tc.body, &body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%v)", tc.name, resp.StatusCode, tc.want, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
		// A campaign body embedded in a shard meets the same validation on
		// the matching shard endpoint.
		kind := strings.TrimPrefix(tc.path, "/v1/")
		if kind != "coverage" && kind != "sessions" {
			continue
		}
		var shard map[string]string
		resp = postJSON(t, ts.URL+"/v1/shards/"+kind, `{"request":`+tc.body+`,"index":[0]}`, &shard)
		if resp.StatusCode != tc.want || shard["error"] != body["error"] {
			t.Errorf("%s as a shard: HTTP %d %q, want %d %q", tc.name, resp.StatusCode, shard["error"], tc.want, body["error"])
		}
	}

	// Shards are rejected before queueing unless the embedded request
	// decodes and the index list is non-empty, strictly ascending and
	// inside the population derived from the request: a 24-fault sample,
	// a population of 3 dies.
	coverage := `{"arch":[12,8,4],"kind":"all","sample":24,"seed":5}`
	sessions := `{"arch":[12,8,4],"chips":3}`
	type shardCase struct{ path, body string }
	shards := []shardCase{
		{"/v1/shards/coverage", `{"request":{"arch":"12-8-4"},"index":[0]}`}, // malformed embedded request
		{"/v1/shards/sessions", `{"index":[0]}`},                             // no embedded request
	}
	for _, sh := range []struct{ path, req, past string }{
		{"/v1/shards/coverage", coverage, "24"},
		{"/v1/shards/sessions", sessions, "3"},
	} {
		for _, index := range []string{``, `,"index":[]`, `,"index":[0,0]`, `,"index":[5,3]`, `,"index":[-1]`, `,"index":[` + sh.past + `]`, `,"index":[99]`} {
			shards = append(shards, shardCase{sh.path, `{"request":` + sh.req + index + `}`})
		}
	}
	for _, tc := range shards {
		var body map[string]string
		resp := postJSON(t, ts.URL+tc.path, tc.body, &body)
		if resp.StatusCode != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("%s %s: HTTP %d %v, want 400 with an error", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/shards/coverage", `{"request":` + coverage + `,"index":[0,23]}`, "faults"},
		{"/v1/shards/sessions", `{"request":` + sessions + `,"index":[1,2]}`, "chips"},
	} {
		var job JobStatus
		if resp := postJSON(t, ts.URL+tc.path, tc.body, &job); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s %s: HTTP %d, want 202", tc.path, tc.body, resp.StatusCode)
		}
		st := pollJob(t, ts.URL, job.ID)
		if st.State != "done" || resultField(t, st, tc.field) != 2.0 {
			t.Errorf("%s: job %s %s, %s = %v, want done with 2", tc.path, st.State, st.Error, tc.field, resultField(t, st, tc.field))
		}
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/artifacts/"+strings.Repeat("0", 64), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: HTTP %d, want 404", resp.StatusCode)
	}

	// Oversized request bodies are cut off at maxRequestBody.
	big := fmt.Sprintf(`{"arch":[12,8,4],"kind":%q}`, strings.Repeat("x", maxRequestBody))
	var body map[string]string
	if resp := postJSON(t, ts.URL+"/v1/generate", big, &body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: HTTP %d, want 400", resp.StatusCode)
	}
}
