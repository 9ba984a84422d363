package experiments

import (
	"strings"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
)

// tinyConfig keeps experiment tests within unit-test budgets.
func tinyConfig() Config {
	return Config{
		GoodChips:           10,
		EscapeSample:        20,
		BaselineItemCap:     20,
		BaselineFaultSample: 300,
		SigmaFractions:      []float64{0.05, 0.2},
		BaselineConfigs:     3,
		BaselinePatterns:    20,
		BaselineGuide:       100,
	}.Normalize()
}

// tinyArch is a scaled-down stand-in for the paper models.
var tinyArch = snn.Arch{16, 12, 8, 4}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Seed == 0 || c.GoodChips != 300 || len(c.SigmaFractions) == 0 {
		t.Errorf("defaults missing: %+v", c)
	}
	q := Quick()
	if q.GoodChips >= c.GoodChips {
		t.Errorf("Quick not smaller than full: %d vs %d", q.GoodChips, c.GoodChips)
	}
}

func TestMethodStrings(t *testing.T) {
	if Proposed.String() != "Proposed" || !strings.Contains(ATCPG.String(), "[3]") ||
		!strings.Contains(Compression.String(), "[2]") {
		t.Errorf("method names: %v %v %v", Proposed, ATCPG, Compression)
	}
	if len(Methods()) != 3 {
		t.Errorf("Methods() = %v", Methods())
	}
}

func TestPaperArches(t *testing.T) {
	a := PaperArches()
	if len(a) != 2 || a[0].String() != "576-256-32-10" || a[1].String() != "576-256-64-32-10" {
		t.Errorf("PaperArches = %v", a)
	}
}

func TestSuiteCachingAndRegimes(t *testing.T) {
	r := NewRunner(tinyConfig())
	a := r.Suite(tinyArch, Proposed, fault.HSF, false)
	b := r.Suite(tinyArch, Proposed, fault.HSF, false)
	if a != b {
		t.Errorf("suite not cached")
	}
	aware := r.Suite(tinyArch, Proposed, fault.HSF, true)
	if aware == a {
		t.Errorf("variation-aware suite shares cache with table suite")
	}
	// No-variation HSF: 2(L-1) = 6; variation-aware: 4(L-1) = 12.
	if a.NumPatterns() != 6 || aware.NumPatterns() != 12 {
		t.Errorf("HSF patterns: table %d (want 6), aware %d (want 12)", a.NumPatterns(), aware.NumPatterns())
	}
	// Baselines ignore the regime flag (single cache entry).
	x := r.Suite(tinyArch, ATCPG, fault.NASF, false)
	y := r.Suite(tinyArch, ATCPG, fault.NASF, true)
	if x != y {
		t.Errorf("baseline suite duplicated per regime")
	}
}

// TestMeasureMethodGoldenBuilds: an uncapped program, which the proposed
// method's always is, is golden-simulated once ideal, by the coverage ATE
// that also serves both overkill campaigns, and once 8-bit; a capped
// baseline program adds one Golden for its capped ideal overkill ATE.
func TestMeasureMethodGoldenBuilds(t *testing.T) {
	cfg := tinyConfig()
	cfg.BaselineItemCap = 1
	r := NewRunner(cfg)
	capped := 0
	for _, m := range Methods() {
		ts := r.Suite(tinyArch, m, fault.ESF, false) // generated, and cached, outside the count
		want := 2
		if m != Proposed && capItems(ts, r.cfg.BaselineItemCap) != ts {
			want, capped = 3, capped+1
		}
		before := faultsim.Snapshot().GoldenBuilds
		cells := r.measureMethod(tinyArch, m, fault.ESF)
		if d := faultsim.Snapshot().GoldenBuilds - before; d != int64(want) {
			t.Errorf("%v: measureMethod built %d Goldens, want %d", m, d, want)
		}
		if m == Proposed && (cells.CovIdeal != 100 || cells.OverkillIdeal != 0 || cells.OverkillQuant != 0) {
			t.Errorf("proposed cells %+v; want full coverage and no overkill", cells)
		}
	}
	if capped == 0 {
		t.Error("no baseline program was capped; the capped case is untested")
	}
}

func TestMergedSuiteDedupesAlwaysSpike(t *testing.T) {
	r := NewRunner(tinyConfig())
	merged := r.MergedSuite(tinyArch, Proposed, false)
	perKind := 0
	for _, k := range fault.Kinds() {
		if k == fault.SASF {
			continue
		}
		perKind += r.Suite(tinyArch, Proposed, k, false).NumPatterns()
	}
	if merged.NumPatterns() != perKind {
		t.Errorf("merged = %d items, want %d", merged.NumPatterns(), perKind)
	}
}

func TestCapItems(t *testing.T) {
	r := NewRunner(tinyConfig())
	ts := r.MergedSuite(tinyArch, Proposed, false)
	capped := capItems(ts, 3)
	if capped.NumPatterns() != 3 {
		t.Errorf("capped to %d items, want 3", capped.NumPatterns())
	}
	if err := capped.Validate(); err != nil {
		t.Errorf("capped set invalid: %v", err)
	}
	if capItems(ts, 0) != ts || capItems(ts, ts.NumPatterns()+1) != ts {
		t.Errorf("no-op caps must return the original set")
	}
}

func TestTable3Renders(t *testing.T) {
	r := NewRunner(tinyConfig())
	out := r.Table3().String()
	// The generated counts must agree with the formulas for both models.
	if strings.Contains(out, "!") {
		t.Errorf("table contains mismatch markers: %s", out)
	}
	for _, want := range []string{"576-256-32-10", "576-256-64-32-10", "3 (formula 3)", "16 (formula 16)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureMethodProposed(t *testing.T) {
	r := NewRunner(tinyConfig())
	cells := r.measureMethod(tinyArch, Proposed, fault.ESF)
	if cells.Configs != 3 || cells.Patterns != 3 || cells.Repetition != 1 || cells.TestLength != 3 {
		t.Errorf("proposed ESF cells = %+v", cells)
	}
	if cells.CovIdeal != 100 || cells.CovQuant != 100 {
		t.Errorf("proposed ESF coverage = %g / %g", cells.CovIdeal, cells.CovQuant)
	}
	if cells.OverkillIdeal != 0 || cells.OverkillQuant != 0 {
		t.Errorf("proposed ESF overkill = %g / %g", cells.OverkillIdeal, cells.OverkillQuant)
	}
}

func TestTablesAndFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	r := NewRunner(tinyConfig())
	t5, blocks := r.Table5(tinyArch)
	if len(blocks) != 9 { // 3 methods x 3 neuron kinds
		t.Fatalf("Table5 blocks = %d", len(blocks))
	}
	if !strings.Contains(t5.String(), "Proposed NASF") {
		t.Errorf("Table5 header missing proposed block")
	}
	t6, blocks6 := r.Table6(tinyArch)
	if len(blocks6) != 6 { // 3 methods x 2 synapse kinds
		t.Fatalf("Table6 blocks = %d", len(blocks6))
	}
	if !strings.Contains(t6.String(), "SASF") {
		t.Errorf("Table6 missing SASF")
	}
	// Every proposed block stays at 100 % coverage / 0 overkill.
	for _, b := range append(blocks, blocks6...) {
		if b.Method == Proposed {
			if b.CovIdeal != 100 || b.OverkillIdeal != 0 {
				t.Errorf("proposed %v: cov %g, overkill %g", b.Kind, b.CovIdeal, b.OverkillIdeal)
			}
		}
	}

	ratio := r.RatioTable().String()
	if !strings.Contains(ratio, "Proposed") || !strings.Contains(ratio, "x") {
		t.Errorf("ratio table: %s", ratio)
	}

	escape, overkill := r.Figure4(tinyArch)
	if len(escape.Series) != 3 || len(overkill.Series) != 3 {
		t.Fatalf("figure series: %d / %d", len(escape.Series), len(overkill.Series))
	}
	for _, s := range escape.Series {
		if s.Name == Proposed.String() {
			for i, v := range s.Y {
				if v != 0 {
					t.Errorf("proposed escape at σ=%gθ is %g%%", r.cfg.SigmaFractions[i], v)
				}
			}
		}
	}
}

func TestSeedForIsStable(t *testing.T) {
	r := NewRunner(tinyConfig())
	a := r.seedFor(tinyArch, ATCPG, fault.SWF)
	b := r.seedFor(tinyArch, ATCPG, fault.SWF)
	if a != b {
		t.Errorf("seedFor unstable")
	}
	if a == r.seedFor(tinyArch, Compression, fault.SWF) {
		t.Errorf("seedFor collides across methods")
	}
	if a == r.seedFor(snn.Arch{16, 12, 8, 5}, ATCPG, fault.SWF) {
		t.Errorf("seedFor collides across arches")
	}
}

func TestUniverseSamplePolicy(t *testing.T) {
	r := NewRunner(tinyConfig())
	// Proposed: always exhaustive.
	if got := len(r.universeSample(tinyArch, fault.SWF, Proposed)); got != tinyArch.Synapses() {
		t.Errorf("proposed SWF sample = %d, want exhaustive %d", got, tinyArch.Synapses())
	}
	// Baselines: neuron kinds exhaustive, synapse kinds bounded.
	if got := len(r.universeSample(tinyArch, fault.ESF, ATCPG)); got != tinyArch.HiddenAndOutputNeurons() {
		t.Errorf("baseline ESF sample = %d", got)
	}
	bounded := len(r.universeSample(tinyArch, fault.SWF, ATCPG))
	if bounded > r.cfg.BaselineFaultSample && bounded != tinyArch.Synapses() {
		t.Errorf("baseline SWF sample = %d exceeds cap %d", bounded, r.cfg.BaselineFaultSample)
	}
}
