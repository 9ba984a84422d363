package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"neurotest/internal/service"
)

// buildCLI compiles the command once per test binary into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "neurotest")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// exitCode runs the CLI and returns its exit code (-1 if it did not run).
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	tests := filepath.Join(dir, "tests.bin")

	// generate → file
	out, err := run(t, bin, "generate", "-arch", "12-8-4", "-o", tests)
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "9 configurations") {
		t.Errorf("generate output: %s", out)
	}

	// info ← file
	out, err = run(t, bin, "info", "-i", tests)
	if err != nil {
		t.Fatalf("info: %v\n%s", err, out)
	}
	for _, want := range []string{"architecture:    12-8-4", "configurations:  9", "NASF all"} {
		if !strings.Contains(out, want) {
			t.Errorf("info missing %q:\n%s", want, out)
		}
	}

	// coverage of the stored suite, every kind on one test set
	out, err = run(t, bin, "coverage", "-i", tests, "-bits", "4")
	if err != nil {
		t.Fatalf("coverage -i: %v\n%s", err, out)
	}
	for _, k := range []string{"NASF", "ESF", "HSF", "SWF", "SASF"} {
		if !regexp.MustCompile(`(?m)^` + k + ` +9 configs, 9 patterns: coverage 100\.00%`).MatchString(out) {
			t.Errorf("coverage -i: %s not fully covered on the stored suite:\n%s", k, out)
		}
	}

	// -list-undetected lists every fault a stored NASF set misses, where
	// the default stops at five.
	nasf := filepath.Join(dir, "nasf.json")
	if out, err := run(t, bin, "generate", "-arch", "12-8-4", "-kind", "NASF", "-json", "-o", nasf); err != nil {
		t.Fatalf("generate NASF: %v\n%s", err, out)
	}
	short, err := run(t, bin, "coverage", "-i", nasf, "-json-in", "-kind", "SWF")
	if err != nil {
		t.Fatalf("coverage -json-in: %v\n%s", err, short)
	}
	full, err := run(t, bin, "coverage", "-i", nasf, "-json-in", "-kind", "SWF", "-list-undetected")
	if err != nil {
		t.Fatalf("coverage -list-undetected: %v\n%s", err, full)
	}
	var pct float64
	var detected, total int
	if _, err := fmt.Sscanf(full[strings.Index(full, "coverage "):], "coverage %f%% (%d/%d)", &pct, &detected, &total); err != nil {
		t.Fatalf("coverage line unparsable: %v\n%s", err, full)
	}
	if n := strings.Count(short, "undetected:"); n != 5 || !strings.Contains(short, fmt.Sprintf("and %d more undetected", total-detected-5)) {
		t.Errorf("default listing shows %d undetected faults, want the first five of %d:\n%s", n, total-detected, short)
	}
	if n := strings.Count(full, "undetected:"); n != total-detected || n <= 5 || strings.Contains(full, "more undetected") {
		t.Errorf("-list-undetected shows %d undetected faults, want all %d:\n%s", n, total-detected, full)
	}

	// coverage (single kind, quantized)
	out, err = run(t, bin, "coverage", "-arch", "12-8-4", "-kind", "SWF", "-bits", "4")
	if err != nil {
		t.Fatalf("coverage: %v\n%s", err, out)
	}
	if !strings.Contains(out, "100.00%") {
		t.Errorf("coverage output: %s", out)
	}

	// diagnose with an injected defect
	out, err = run(t, bin, "diagnose", "-arch", "12-8-4", "-inject", "HSF:2,3")
	if err != nil {
		t.Fatalf("diagnose: %v\n%s", err, out)
	}
	if !strings.Contains(out, "<== injected defect") {
		t.Errorf("diagnosis did not locate the defect:\n%s", out)
	}

	// margins
	out, err = run(t, bin, "margins", "-arch", "12-8-4")
	if err != nil {
		t.Fatalf("margins: %v\n%s", err, out)
	}
	if !strings.Contains(out, "σ ≤ 0.0750") {
		t.Errorf("margins output: %s", out)
	}

	// trace → VCD
	vcdPath := filepath.Join(dir, "item.vcd")
	out, err = run(t, bin, "trace", "-arch", "12-8-4", "-item", "1", "-o", vcdPath)
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions $end") {
		t.Errorf("VCD file malformed")
	}

	// error paths exit non-zero
	if _, err := run(t, bin, "generate", "-arch", "bogus"); err == nil {
		t.Errorf("bad arch accepted")
	}
	if _, err := run(t, bin, "nonsense"); err == nil {
		t.Errorf("unknown subcommand accepted")
	}
}

// TestCLIExitCodes pins the exit-code contract: flag-validation failures
// exit 2 (usage), runtime failures exit 1.
func TestCLIExitCodes(t *testing.T) {
	bin := buildCLI(t)

	usageCases := [][]string{
		{},           // no subcommand
		{"nonsense"}, // unknown subcommand
		{"generate", "-arch", "bogus"},
		{"generate", "-arch", "12-8-4", "-kind", "XYZ"},
		{"info"}, // missing -i
		{"coverage", "-arch", "12-8-4", "-bits", "-3"},
		{"coverage", "-arch", "12-8-4", "-bits", "4", "-granularity", "weird"},
		{"diagnose", "-arch", "12-8-4", "-inject", "HSF:99,99"},
		{"margins", "-arch", "12-8-4", "-confidence", "-1"},
		{"trace", "-arch", "12-8-4", "-item", "9999"},
		{"flaky", "-arch", "12-8-4", "-probs", "1.5"},
	}
	for _, args := range usageCases {
		if code, out := exitCode(t, bin, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (usage)\n%s", args, code, out)
		}
	}

	runtimeCases := [][]string{
		{"info", "-i", filepath.Join(t.TempDir(), "does-not-exist.bin")},
		{"coverage", "-i", filepath.Join(t.TempDir(), "does-not-exist.bin")},
		{"generate", "-arch", "12-8-4", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "t.bin")},
	}
	for _, args := range runtimeCases {
		if code, out := exitCode(t, bin, args...); code != 1 {
			t.Errorf("%v: exit %d, want 1 (runtime)\n%s", args, code, out)
		}
	}

	if code, out := exitCode(t, bin, "generate", "-arch", "12-8-4"); code != 0 {
		t.Errorf("good generate: exit %d, want 0\n%s", code, out)
	}
}

func TestCLIFlaky(t *testing.T) {
	bin := buildCLI(t)
	args := []string{"flaky", "-arch", "12-8-4", "-faults", "15", "-chips", "15",
		"-probs", "1.0,0.5", "-budgets", "0,2", "-jitter", "0.05", "-drop", "0.02", "-seed", "7"}
	out, err := run(t, bin, args...)
	if err != nil {
		t.Fatalf("flaky: %v\n%s", err, out)
	}
	for _, want := range []string{"p(active)", "amplification", "12-8-4 model", "vote best-2-of-3"} {
		if !strings.Contains(out, want) {
			t.Errorf("flaky output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 7 { // title + header + rule + 4 points
		t.Errorf("flaky table has %d lines:\n%s", got, out)
	}

	// The sweep must be byte-identical across runs for the same seed.
	again, err := run(t, bin, args...)
	if err != nil {
		t.Fatalf("flaky rerun: %v\n%s", err, again)
	}
	if out != again {
		t.Errorf("flaky output not reproducible:\n--- first\n%s--- second\n%s", out, again)
	}

	// Invalid flag combinations die with a usage error, not a panic.
	for _, bad := range [][]string{
		{"flaky", "-arch", "12-8-4", "-probs", "1.5"},
		{"flaky", "-arch", "12-8-4", "-budgets", "-1"},
		{"flaky", "-arch", "12-8-4", "-drop", "1.0"},
		{"flaky", "-arch", "12-8-4", "-jitter-mag", "0"},
		{"flaky", "-arch", "12-8-4", "-chips", "0"},
		{"flaky", "-arch", "12-8-4", "-probs", "0.5,x"},
	} {
		out, err := run(t, bin, bad...)
		if err == nil {
			t.Errorf("%v accepted", bad)
		}
		if strings.Contains(out, "panic") {
			t.Errorf("%v panicked:\n%s", bad, out)
		}
	}
}

// TestCLIMatchesServiceCoverage: the CLI and the service measure the same
// coverage. For every kind on 10-8-6-3 at 4 bits per boundary, where HSF
// leaves 14 of 17 faults undetected, `neurotest coverage -list-undetected`
// and an in-process POST /v1/coverage over the whole universe (sample 0)
// report the same detected count and the same first ten undetected faults,
// in the same order.
func TestCLIMatchesServiceCoverage(t *testing.T) {
	bin := buildCLI(t)
	out, err := run(t, bin, "coverage", "-arch", "10-8-6-3", "-bits", "4", "-granularity", "boundary", "-list-undetected")
	if err != nil {
		t.Fatalf("coverage: %v\n%s", err, out)
	}
	type tally struct {
		detected   int
		undetected []string
	}
	cli := map[string]*tally{}
	var cur *tally
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) > 1 && fields[0] == "undetected:" && cur != nil:
			cur.undetected = append(cur.undetected, fields[1])
		case strings.Contains(line, "coverage "):
			var pct float64
			var total int
			cur = &tally{}
			if _, err := fmt.Sscanf(line[strings.Index(line, "coverage "):], "coverage %f%% (%d/%d)", &pct, &cur.detected, &total); err != nil {
				t.Fatalf("coverage line unparsable: %v\n%s", err, line)
			}
			cli[fields[0]] = cur
		}
	}
	if hsf := cli["HSF"]; len(cli) != 5 || hsf == nil || hsf.detected != 3 || len(hsf.undetected) != 14 {
		t.Fatalf("fixture broken: the CLI's HSF coverage is not 3/17 with 14 undetected:\n%s", out)
	}

	cfg := service.DefaultConfig()
	cfg.Workers = 1
	s := service.New(cfg)
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Close()
	}()
	for kind, want := range cli {
		body := `{"arch":[10,8,6,3],"kind":"` + kind + `","quant":{"bits":4,"granularity":"boundary"},"sample":0}`
		var job service.JobStatus
		postJob(t, srv.URL+"/v1/coverage", body, &job)
		for deadline := time.Now().Add(30 * time.Second); !service.JobStateFromString(job.State).Terminal(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: job %s never finished", kind, job.ID)
			}
			getJob(t, srv.URL+"/v1/jobs/"+job.ID, &job)
		}
		var res struct {
			Detected   int      `json:"detected"`
			Undetected []string `json:"undetected"`
		}
		raw, err := json.Marshal(job.Result)
		if err != nil || job.State != "done" || json.Unmarshal(raw, &res) != nil {
			t.Fatalf("%s: job ended %q (%s) with %s", kind, job.State, job.Error, raw)
		}
		first := want.undetected[:min(len(want.undetected), 10)]
		if res.Detected != want.detected || !slices.Equal(res.Undetected, first) {
			t.Errorf("%s: service detected %d, undetected %v; CLI detected %d, undetected %v",
				kind, res.Detected, res.Undetected, want.detected, first)
		}
	}
}

// postJob posts a JSON body and decodes the accepted job's status.
func postJob(t *testing.T, url, body string, job *service.JobStatus) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(job); err != nil {
		t.Fatal(err)
	}
}

// getJob polls one job's status.
func getJob(t *testing.T, url string, job *service.JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(job); err != nil {
		t.Fatal(err)
	}
}
