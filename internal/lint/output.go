package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JSONFinding is the machine-readable form of one finding. The field
// order is part of the output contract (golden-tested): tools diffing two
// runs byte-wise must see identical bytes for identical findings.
type JSONFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// JSONReport is the top-level -json document, and doubles as the
// baseline file format: a baseline is literally a saved report.
type JSONReport struct {
	Count    int           `json:"count"`
	Findings []JSONFinding `json:"findings"`
}

// NewJSONReport converts findings (already position-sorted by the
// Runner) into the machine-readable report. rel maps an absolute file
// path to the stable form written out — cmd/neurolint passes
// module-root-relative slash paths so reports and baselines compare
// equal across checkouts.
func NewJSONReport(findings []Finding, rel func(string) string) JSONReport {
	out := JSONReport{Count: len(findings), Findings: make([]JSONFinding, 0, len(findings))}
	for _, f := range findings {
		out.Findings = append(out.Findings, JSONFinding{
			File:  rel(f.Pos.Filename),
			Line:  f.Pos.Line,
			Col:   f.Pos.Column,
			Check: f.Check,
			Msg:   f.Msg,
		})
	}
	return out
}

// Write emits the report as indented JSON with a trailing newline —
// stable bytes for stable findings.
func (r JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Baseline is a set of accepted findings. Matching is by file, check and
// message — not line or column — so unrelated edits that shift a known
// finding do not resurrect it, while any new instance of the same
// problem in the same file still fails (each key admits only as many
// findings as the baseline recorded).
type Baseline struct {
	allowed map[string]int
}

// baselineKey is the identity under which findings are baselined.
func baselineKey(file, check, msg string) string {
	return file + "\x00" + check + "\x00" + msg
}

// LoadBaseline reads a baseline file written by -write-baseline (or any
// saved -json report).
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: reading baseline %s: %w", path, err)
	}
	var report JSONReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("lint: parsing baseline %s: %w", path, err)
	}
	b := &Baseline{allowed: make(map[string]int, len(report.Findings))}
	for _, f := range report.Findings {
		b.allowed[baselineKey(f.File, f.Check, f.Msg)]++
	}
	return b, nil
}

// Filter returns the findings not covered by the baseline, preserving
// order. Each baseline entry absorbs at most one finding, earliest
// position first.
func (b *Baseline) Filter(findings []Finding, rel func(string) string) []Finding {
	remaining := make(map[string]int, len(b.allowed))
	for k, v := range b.allowed {
		remaining[k] = v
	}
	var out []Finding
	for _, f := range findings {
		key := baselineKey(rel(f.Pos.Filename), f.Check, f.Msg)
		if remaining[key] > 0 {
			remaining[key]--
			continue
		}
		out = append(out, f)
	}
	return out
}
