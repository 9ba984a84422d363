package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/obs"
	"neurotest/internal/snn"
)

// runCoverageCampaign submits a small coverage campaign and waits for it to
// finish, leaving metrics and trace spans behind.
func runCoverageCampaign(t *testing.T, base string) {
	t.Helper()
	var job JobStatus
	resp := postJSON(t, base+"/v1/coverage", `{"arch":[12,8,4],"kind":"SWF"}`, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coverage submit: HTTP %d", resp.StatusCode)
	}
	st := pollJob(t, base, job.ID)
	if st.State != "done" {
		t.Fatalf("campaign ended %q: %+v", st.State, st)
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	runCoverageCampaign(t, ts.URL)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every line is a comment or a well-formed sample, and families appear
	// in sorted order with their series grouped under them.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	var families []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			families = append(families, strings.SplitN(line, " ", 4)[2])
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("metric families not sorted: %v", families)
	}

	// A completed campaign must surface across all three instrumented
	// layers: the daemon's counters and build histograms, the tester's
	// campaign latencies, and the fault simulator's memo statistics.
	for _, want := range []string{
		`neurotestd_jobs_finished_total{state="done"} 1`,
		"neurotestd_artifact_build_seconds_count 1",
		"neurotestd_http_requests_total ",
		`tester_campaign_seconds_count{op="coverage"} `,
		"faultsim_faults_simulated_total ",
		"faultsim_memo_hit_ratio ",
		"go_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Histograms carry the full cumulative shape.
	for _, want := range []string{
		`neurotestd_job_run_seconds_bucket{le="+Inf"} 1`,
		"neurotestd_job_run_seconds_sum ",
		"neurotestd_job_run_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing histogram series %q", want)
		}
	}

	// Scrapes are deterministically ordered: a second scrape yields the
	// same sequence of series keys (values may drift, order may not).
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
		return out
	}
	k1, k2 := keys(text), keys(string(body2))
	if len(k1) != len(k2) {
		t.Fatalf("scrape series count changed: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("series order not stable at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
}

func TestMetricsJSONCompat(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	runCoverageCampaign(t, ts.URL)

	var snap map[string]int64
	if resp := getJSON(t, ts.URL+"/metrics?format=json", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=json: HTTP %d", resp.StatusCode)
	}
	for _, key := range []string{
		"http_requests", "cache_hits", "cache_misses", "jobs_submitted",
		"jobs_done", "cache_entries", "queue_depth", "queue_capacity",
		"workers", "uptime_seconds",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("JSON snapshot missing pre-registry key %q: %v", key, snap)
		}
	}
	if snap["jobs_done"] != 1 || snap["cache_misses"] != 1 {
		t.Errorf("campaign accounting: jobs_done=%d cache_misses=%d",
			snap["jobs_done"], snap["cache_misses"])
	}
}

func TestTracesNDJSONAfterCampaign(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	runCoverageCampaign(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	spans := map[string]obs.SpanRecord{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		spans[rec.Name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	root, ok := spans["coverage"]
	if !ok {
		t.Fatalf("no coverage root span; got %v", spans)
	}
	if root.Parent != "" {
		t.Errorf("root span has parent %q", root.Parent)
	}
	for _, phase := range []string{"generate", "program", "fault-simulate"} {
		child, ok := spans[phase]
		if !ok {
			t.Errorf("missing %q phase span", phase)
			continue
		}
		if child.Trace != root.Trace {
			t.Errorf("%s trace = %q, want root's %q", phase, child.Trace, root.Trace)
		}
		if child.Parent != root.Span {
			t.Errorf("%s parent = %q, want root span %q", phase, child.Parent, root.Span)
		}
		if child.StartUS < root.StartUS || child.DurUS > root.DurUS {
			t.Errorf("%s [%d +%dus] escapes root [%d +%dus]",
				phase, child.StartUS, child.DurUS, root.StartUS, root.DurUS)
		}
	}
	// Trace IDs are content-addressed by the campaign spec, so the same
	// campaign re-run (cache hit or not) maps onto the same trace.
	spec := SuiteSpec{Arch: snn.Arch{12, 8, 4}, Kind: fault.SWF}
	if want := obs.TraceID(spec.Key() + "|coverage"); root.Trace != want {
		t.Errorf("trace ID %q, want content-derived %q", root.Trace, want)
	}
}

// TestShardJobTracesPhases checks that a worker's shard job opens through
// the same prologue as a standalone job: its root span has the generate,
// program and fault-simulate phases as children.
func TestShardJobTracesPhases(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	var job JobStatus
	body := `{"request":{"arch":[12,8,4],"kind":"SWF","sample":16,"seed":3},"index":[2,5,11]}`
	if resp := postJSON(t, ts.URL+"/v1/shards/coverage", body, &job); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("shard submit: HTTP %d", resp.StatusCode)
	}
	if st := pollJob(t, ts.URL, job.ID); st.State != "done" {
		t.Fatalf("shard job ended %q: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	spans := map[string]obs.SpanRecord{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		spans[rec.Name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	root, ok := spans["coverage-shard"]
	if !ok {
		t.Fatalf("no coverage-shard root span; got %v", spans)
	}
	for _, phase := range []string{"generate", "program", "fault-simulate"} {
		if child, ok := spans[phase]; !ok || child.Parent != root.Span {
			t.Errorf("%s span %+v is not a child of the shard root %s", phase, child, root.Span)
		}
	}
}

func TestRetryAfterDerivedFromObservedLatency(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCapacity = 1
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)

	// Park a job on the only worker and another in the only buffer slot,
	// then teach the latency histogram that jobs take ~10s: the refusal
	// must tell the client to come back in depth × mean / workers = 10s.
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
	s.metrics.JobRunSeconds.Observe(10)

	resp := postJSON(t, ts.URL+"/v1/coverage", `{"arch":[12,8,4],"kind":"SWF"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "10" {
		t.Errorf("Retry-After = %q, want \"10\" (1 queued × 10s mean / 1 worker)", ra)
	}

	// The clamp caps pathological estimates at one minute.
	s.metrics.JobRunSeconds.Observe(100000)
	resp = postJSON(t, ts.URL+"/v1/coverage", `{"arch":[12,8,4],"kind":"SWF"}`, nil)
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Errorf("Retry-After = %q, want clamped \"60\"", ra)
	}
}
