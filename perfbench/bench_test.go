package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layer, perLayer)
	}
}

// TestSmoke runs a handful of ops of every workload, untraced and traced,
// and checks that every metric prints with its unit and that no op failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const ops = 4
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(config{workload: wl.name, seed: 7, window: time.Minute, trace: trace,
					maxOps: ops}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != ops {
					t.Fatalf("correct %v, %d of %d ops failed, want %d ops\n%s",
						res.Correct, res.Failed, res.Attempted, ops, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("result metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				for _, d := range append(defs, metricDef{"failed_pct", "%"}) {
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +(\S+) ` + regexp.QuoteMeta(d.unit) + `$`)
					m := line.FindStringSubmatch(out.String())
					if m == nil {
						t.Errorf("no line prints %s in %s", d.name, d.unit)
						continue
					}
					if d.name == "failed_pct" && m[1] != "0.000000" {
						t.Errorf("failed_pct %s, want 0", m[1])
					}
				}
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
