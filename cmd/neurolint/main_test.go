package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// samplePkg is the command's fixture package with exactly one known
// finding (see testdata/src/sample).
const samplePkg = "./cmd/neurolint/testdata/src/sample"

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestJSONGolden locks the -json byte format: field order, indentation
// and module-root-relative paths are the machine-readable contract.
func TestJSONGolden(t *testing.T) {
	code, out, stderr := runCLI(t, "-json", samplePkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (one finding); stderr: %s", code, stderr)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("-json output diverged from testdata/golden.json:\ngot:\n%s\nwant:\n%s", out, golden)
	}
}

// TestJSONParses asserts the report is valid JSON carrying the expected
// shape — the same check CI runs with jq.
func TestJSONParses(t *testing.T) {
	_, out, _ := runCLI(t, "-json", samplePkg)
	var report struct {
		Count    int `json:"count"`
		Findings []struct {
			File  string `json:"file"`
			Line  int    `json:"line"`
			Col   int    `json:"col"`
			Check string `json:"check"`
			Msg   string `json:"msg"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}
	if report.Count != 1 || len(report.Findings) != 1 {
		t.Fatalf("report = %+v, want exactly one finding", report)
	}
	f := report.Findings[0]
	if f.Check != "unchecked-error" || !strings.HasSuffix(f.File, "sample.go") || f.Line == 0 {
		t.Errorf("finding = %+v", f)
	}
	if strings.Contains(f.File, "\\") || strings.HasPrefix(f.File, "/") {
		t.Errorf("file %q is not a module-root-relative slash path", f.File)
	}
}

// TestBaselineRoundtrip writes the current findings as a baseline, then
// verifies the same tree passes cleanly against it — the adoption path
// for pre-existing findings.
func TestBaselineRoundtrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	code, _, stderr := runCLI(t, "-write-baseline", base, samplePkg)
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("baseline summary = %q", stderr)
	}
	code, out, stderr := runCLI(t, "-baseline", base, samplePkg)
	if code != 0 {
		t.Errorf("baselined run exit = %d, want 0; stdout: %s stderr: %s", code, out, stderr)
	}
	if out != "" {
		t.Errorf("baselined run still reports: %s", out)
	}
	// The baseline absorbs exactly the recorded findings: a JSON run over
	// the same tree with the baseline is empty, not merely smaller.
	code, out, _ = runCLI(t, "-baseline", base, "-json", samplePkg)
	if code != 0 || !strings.Contains(out, `"count": 0`) {
		t.Errorf("baselined -json run: exit=%d out=%s", code, out)
	}
}

func TestBaselineMissingFileErrors(t *testing.T) {
	code, _, stderr := runCLI(t, "-baseline", filepath.Join(t.TempDir(), "absent.json"), samplePkg)
	if code != 2 || !strings.Contains(stderr, "baseline") {
		t.Errorf("exit = %d, stderr = %q; want usage-error exit naming the baseline", code, stderr)
	}
}

func TestListNamesEveryCheck(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, check := range []string{
		"exhaustive-fault-switch", "determinism", "float-eq", "no-panic",
		"ctx-goroutine", "unchecked-error", "lock-balance", "resource-close",
		"interprocedural-determinism", "dead-code",
	} {
		if !strings.Contains(out, check) {
			t.Errorf("-list output missing %s", check)
		}
	}
}

// TestPartialLoadSkipsDeadCode pins that a run over part of the module
// stays silent on dead code: it sees only some of the callers.
func TestPartialLoadSkipsDeadCode(t *testing.T) {
	code, out, stderr := runCLI(t, "./internal/fault")
	if code != 0 || strings.Contains(out, "dead-code") {
		t.Errorf("exit = %d, stdout = %q, stderr = %q; want a clean run", code, out, stderr)
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-checks", "no-such-check", samplePkg)
	if code != 2 || !strings.Contains(stderr, "unknown check") {
		t.Errorf("exit = %d, stderr = %q", code, stderr)
	}
}
