package repair

import (
	"context"
	"sync"
	"testing"

	"neurotest/internal/chip"
	"neurotest/internal/core"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// fuzzSubstrate is the shared dictionary/planner pair FuzzRepairPlan probes:
// built once (suite generation is the expensive part) and read-only after.
var (
	fuzzOnce sync.Once
	fuzzDict *diagnose.Dictionary
	fuzzPl   Planner
	fuzzN    int
)

func fuzzSetup(f *testing.F) {
	f.Helper()
	fuzzOnce.Do(func() {
		arch := snn.Arch{8, 6, 4}
		params := snn.DefaultParams()
		g, err := core.NewGenerator(core.Options{
			Arch: arch, Params: params, Values: fault.PaperValues(params.Theta),
		})
		if err != nil {
			f.Fatal(err)
		}
		_, merged := g.GenerateAll()
		var universe []fault.Fault
		for _, k := range fault.Kinds() {
			universe = append(universe, fault.Universe(arch, k)...)
		}
		fuzzDict, err = diagnose.BuildOn(context.Background(), tester.New(merged, nil), g.Options().Values, universe)
		if err != nil {
			f.Fatal(err)
		}
		fuzzN = len(merged.Items)

		net := snn.New(arch, params)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = 0.3 * float64((b+i)%5)
			}
		}
		c, err := chip.New(chip.Config{
			Arch:       arch,
			Core:       chip.CoreShape{Axons: 8, Neurons: 8},
			WeightBits: 8, SpareAxons: 1, SpareNeurons: 1,
		})
		if err != nil {
			f.Fatal(err)
		}
		fuzzPl = Planner{Chip: c, Net: net, Margin: 0.25}
	})
}

// signatureFromBytes builds an n-item signature whose fail bits are taken
// from b (bit i of the signature is bit i%8 of b[i/8]; missing bytes read
// as zero, excess bits are ignored).
func signatureFromBytes(b []byte, n int) diagnose.Signature {
	s := diagnose.NewSignature(n)
	for i := 0; i < n; i++ {
		if i/8 < len(b) && b[i/8]&(1<<uint(i%8)) != 0 {
			s.SetFail(i)
		}
	}
	return s
}

// FuzzRepairPlan feeds arbitrary observed-signature bytes through diagnosis
// and planning: whatever a flaky tester hands the loop, the planner must
// never panic and every emitted plan must validate against its chip.
func FuzzRepairPlan(f *testing.F) {
	fuzzSetup(f)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x80, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		sig := signatureFromBytes(data, fuzzN)
		cands := fuzzDict.Candidates(sig)
		plan, err := fuzzPl.Plan(cands)
		if err != nil {
			t.Fatalf("dictionary candidates must always plan: %v", err)
		}
		if err := plan.Validate(fuzzPl.Chip); err != nil {
			t.Fatalf("emitted plan fails validation: %v\n%s", err, plan)
		}
		if plan.CellsRetired() < 0 || plan.Columns() < 0 {
			t.Fatalf("negative plan summary: %s", plan)
		}
		if res := plan.Residual(nil); res != nil && len(res.StuckWeight) != plan.Bypassed() {
			t.Fatalf("bypass zeros %d != bypassed cells %d", len(res.StuckWeight), plan.Bypassed())
		}
	})
}
