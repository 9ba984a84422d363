package apptest

import (
	"math/bits"
	"reflect"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

func trainedClassifier(t *testing.T) (*Classifier, *Dataset, *Dataset) {
	t.Helper()
	ds, err := Synthetic(24, 3, 30, 0.4, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.7, 8)
	cl, err := Train(train, TrainOptions{
		Arch:   snn.Arch{24, 16, 3},
		Params: snn.DefaultParams(),
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, train, test
}

func TestSyntheticDatasetShape(t *testing.T) {
	ds, err := Synthetic(10, 4, 5, 0.5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Inputs != 10 || ds.Classes != 4 || len(ds.Samples) != 20 {
		t.Fatalf("shape: %+v", ds)
	}
	perClass := map[int]int{}
	for _, s := range ds.Samples {
		if len(s.Input) != 10 {
			t.Fatalf("sample width %d", len(s.Input))
		}
		perClass[s.Label]++
	}
	for c := 0; c < 4; c++ {
		if perClass[c] != 5 {
			t.Errorf("class %d has %d samples", c, perClass[c])
		}
	}
	// Determinism.
	ds2, err := Synthetic(10, 4, 5, 0.5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Samples {
		for j := range ds.Samples[i].Input {
			if ds.Samples[i].Input[j] != ds2.Samples[i].Input[j] {
				t.Fatalf("dataset not deterministic")
			}
		}
	}
}

func TestSplit(t *testing.T) {
	ds, err := Synthetic(8, 2, 20, 0.5, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.75, 3)
	if len(train.Samples) != 30 || len(test.Samples) != 10 {
		t.Fatalf("split sizes %d/%d", len(train.Samples), len(test.Samples))
	}
}

func TestTrainingLearnsAboveChance(t *testing.T) {
	cl, train, test := trainedClassifier(t)
	trainAcc := cl.Accuracy(cl.Net, train, nil)
	testAcc := cl.Accuracy(cl.Net, test, nil)
	// Chance is 1/3; prototype datasets with 5% flip noise should be
	// comfortably learnable by the reservoir + perceptron combination.
	if trainAcc < 0.8 {
		t.Errorf("train accuracy %.2f below 0.8", trainAcc)
	}
	if testAcc < 0.7 {
		t.Errorf("test accuracy %.2f below 0.7", testAcc)
	}
}

func TestTrainRejectsBadShapes(t *testing.T) {
	ds, err := Synthetic(8, 2, 4, 0.5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(ds, TrainOptions{Arch: snn.Arch{9, 4, 2}, Params: snn.DefaultParams()}); err == nil {
		t.Errorf("input mismatch accepted")
	}
	if _, err := Train(ds, TrainOptions{Arch: snn.Arch{8, 4, 3}, Params: snn.DefaultParams()}); err == nil {
		t.Errorf("class mismatch accepted")
	}
	if _, err := Train(ds, TrainOptions{Arch: snn.Arch{8}, Params: snn.DefaultParams()}); err == nil {
		t.Errorf("bad arch accepted")
	}
}

// TestFunctionalCoverageBelowStructural reproduces the paper's motivating
// observation: application-dependent screening misses faults that the
// deterministic application-independent method catches, and the escapees
// barely dent application accuracy.
func TestFunctionalCoverageBelowStructural(t *testing.T) {
	cl, _, test := trainedClassifier(t)
	values := fault.PaperValues(cl.Net.Params.Theta)
	arch := cl.Net.Arch

	var faults []fault.Fault
	for _, k := range fault.Kinds() {
		faults = append(faults, tester.SampleFaults(arch, []fault.Kind{k}, 80, 5)...)
	}

	res := cl.FunctionalScreen(test, faults, values)
	if res.Total != len(faults) {
		t.Fatalf("screened %d/%d", res.Total, len(faults))
	}
	if res.Coverage() >= 100 {
		t.Fatalf("functional screening claims full coverage — the motivation experiment is broken")
	}
	if res.Coverage() <= 0 {
		t.Fatalf("functional screening detects nothing")
	}
	// Escaped faults leave the application essentially intact.
	for _, acc := range res.UndetectedAccuracy {
		if acc < 0.5 {
			t.Errorf("an escaped fault degraded accuracy to %.2f — it should have been detected", acc)
		}
	}
}

// TestPredictMatchesAccuracyPath pins the one prediction path against the
// simulator's full trace: on the good network and on a faulty one, Predict
// over a simulator reused across samples picks the first output neuron
// with the most spikes in a fresh simulator's trace, and Accuracy counts
// exactly those hits.
func TestPredictMatchesAccuracyPath(t *testing.T) {
	cl, _, test := trainedClassifier(t)
	values := fault.PaperValues(cl.Net.Params.Theta)
	nasf := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0}).Modifiers(values)
	out := cl.Net.Arch.Layers() - 1
	for _, mods := range []*snn.Modifiers{nil, nasf} {
		sim := snn.NewSimulator(cl.Net)
		ok := 0
		for i, s := range test.Samples {
			_, trace := snn.NewSimulator(cl.Net).RunTrace(s.Input, cl.Timesteps, snn.ApplyHold, mods)
			want, wantC := 0, -1
			for j, x := range trace.X[out] {
				if c := bits.OnesCount64(x); c > wantC {
					want, wantC = j, c
				}
			}
			got := cl.Predict(sim, s.Input, mods)
			if got != want {
				t.Fatalf("mods %v, sample %d: Predict = %d, trace argmax %d", mods, i, got, want)
			}
			if got == s.Label {
				ok++
			}
		}
		want := float64(ok) / float64(len(test.Samples))
		if got := cl.Accuracy(cl.Net, test, mods); got != want {
			t.Errorf("mods %v: Accuracy %.3f != Predict path accuracy %.3f", mods, got, want)
		}
	}
}

func TestSyntheticRejectsBadShape(t *testing.T) {
	if _, err := Synthetic(0, 2, 3, 0.5, 0.1, 1); err == nil {
		t.Errorf("expected an error for a zero-input dataset")
	}
}

func TestStreamIsDeterministicAndCoversDataset(t *testing.T) {
	ds, err := Synthetic(12, 3, 8, 0.4, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ds.Stream(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Stream(42)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 500; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.Label != sb.Label || !reflect.DeepEqual(sa.Input, sb.Input) {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
		seen[sa.Label] = true
	}
	// Uniform resampling over 500 draws must visit every class.
	if len(seen) != ds.Classes {
		t.Errorf("stream visited %d of %d classes", len(seen), ds.Classes)
	}
}

func TestStreamRejectsEmptyDataset(t *testing.T) {
	if _, err := (&Dataset{Inputs: 4}).Stream(1); err == nil {
		t.Error("empty dataset streamed")
	}
}
