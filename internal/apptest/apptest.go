// Package apptest implements application-dependent functional testing of
// neuromorphic chips — the approach the paper's introduction contrasts
// against (references [4], [7], [10]): configure the chip for a concrete
// application, apply application stimuli, and call the chip good when its
// predictions match.
//
// The package provides the whole application substrate hand-rolled:
// synthetic classification datasets, reservoir-style training of an SNN
// classifier (random scaled hidden layers + a perceptron-trained output
// boundary, all on the package's own LIF simulator), rate-coded inference,
// and a functional tester that screens dies by comparing predictions with
// the golden model.
//
// Its purpose in this repository is to reproduce the motivation for the
// paper: functional application tests only expose faults that disturb the
// one configured application, so their structural fault coverage is far
// below the deterministic method's 100 % — which tests the chip for every
// application it could be configured for.
package apptest

import (
	"fmt"
	"math"
	"math/bits"

	"neurotest/internal/fault"
	"neurotest/internal/margin"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// Sample is one labelled stimulus.
type Sample struct {
	Input snn.Pattern
	Label int
}

// Workload builds the synthetic application a fielded chip of arch runs:
// a Synthetic dataset of about samples stimuli (at least two per class) at
// density 0.3 and flip rate 0.05, and a classifier trained onto arch with
// params. seed fixes both; the in-field monitor, the repair loop's accuracy
// judge and the online experiment share this one workload definition.
func Workload(arch snn.Arch, params snn.Params, samples int, seed uint64) (*Dataset, *Classifier, error) {
	if err := arch.Validate(); err != nil {
		return nil, nil, err
	}
	ds, err := Synthetic(arch.Inputs(), arch.Outputs(), max(2, samples/arch.Outputs()), 0.3, 0.05, seed+101)
	if err != nil {
		return nil, nil, err
	}
	cl, err := Train(ds, TrainOptions{Arch: arch, Params: params, Seed: seed + 202})
	if err != nil {
		return nil, nil, err
	}
	return ds, cl, nil
}

// Dataset is a labelled set of binary stimuli.
type Dataset struct {
	Inputs  int
	Classes int
	Samples []Sample
}

// Synthetic builds a prototype-plus-noise classification dataset: each
// class gets a random binary prototype of the given density, and every
// sample is its class prototype with independent bit flips. This is the
// standard stand-in for the "edge vision" workloads the paper's
// introduction motivates.
func Synthetic(inputs, classes, perClass int, density, flip float64, seed uint64) (*Dataset, error) {
	if inputs <= 0 || classes <= 0 || perClass <= 0 {
		return nil, fmt.Errorf("apptest: bad dataset shape %d/%d/%d", inputs, classes, perClass)
	}
	rng := stats.NewRNG(seed)
	protos := make([]snn.Pattern, classes)
	for c := range protos {
		p := snn.NewPattern(inputs)
		for i := range p {
			p[i] = rng.Float64() < density
		}
		protos[c] = p
	}
	ds := &Dataset{Inputs: inputs, Classes: classes}
	for c := 0; c < classes; c++ {
		for s := 0; s < perClass; s++ {
			p := protos[c].Clone()
			for i := range p {
				if rng.Float64() < flip {
					p[i] = !p[i]
				}
			}
			ds.Samples = append(ds.Samples, Sample{Input: p, Label: c})
		}
	}
	return ds, nil
}

// Stream re-samples a dataset as an open-ended stimulus sequence: Next
// draws one sample per call, uniformly with replacement, from a private
// SplitMix64 stream. Equal (dataset, seed) pairs replay the identical
// infinite sequence — the workload model of the in-field online monitor,
// where a deployed chip sees application inputs forever rather than one
// epoch of a finite set.
type Stream struct {
	ds  *Dataset
	rng *stats.RNG
}

// Stream starts a deterministic resampling stream over the dataset. It
// fails on an empty dataset (there is nothing to draw).
func (ds *Dataset) Stream(seed uint64) (*Stream, error) {
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("apptest: cannot stream an empty dataset")
	}
	return &Stream{ds: ds, rng: stats.NewRNG(seed)}, nil
}

// Next returns the next stimulus of the stream.
func (s *Stream) Next() Sample {
	return s.ds.Samples[s.rng.Intn(len(s.ds.Samples))]
}

// Split partitions the dataset deterministically into train and test sets
// with the given train fraction.
func (ds *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	rng := stats.NewRNG(seed)
	perm := rng.Perm(len(ds.Samples))
	cut := int(trainFrac * float64(len(ds.Samples)))
	train = &Dataset{Inputs: ds.Inputs, Classes: ds.Classes}
	test = &Dataset{Inputs: ds.Inputs, Classes: ds.Classes}
	for i, idx := range perm {
		if i < cut {
			train.Samples = append(train.Samples, ds.Samples[idx])
		} else {
			test.Samples = append(test.Samples, ds.Samples[idx])
		}
	}
	return train, test
}

// Classifier is a trained SNN application configuration.
type Classifier struct {
	Net *snn.Network
	// Timesteps is the rate-coding observation window.
	Timesteps int
}

// TrainOptions parameterizes Train.
type TrainOptions struct {
	// Arch must end in the dataset's class count.
	Arch   snn.Arch
	Params snn.Params
	// Timesteps is the rate-coding window (default 8).
	Timesteps int
	// Epochs of perceptron updates over the training set (default 12).
	Epochs int
	// LearningRate of the output-boundary delta rule (default 0.05).
	LearningRate float64
	Seed         uint64
}

// Train builds a classifier reservoir-style: every boundary except the
// last is frozen random with a scale chosen to keep mid-range spiking
// activity, and the last boundary is trained with a perceptron delta rule
// on the penultimate layer's spike counts. No gradients, no external
// libraries — sufficient to learn prototype datasets well above chance,
// which is all the functional-testing comparison needs.
func Train(ds *Dataset, opt TrainOptions) (*Classifier, error) {
	if err := opt.Arch.Validate(); err != nil {
		return nil, err
	}
	if opt.Arch.Inputs() != ds.Inputs {
		return nil, fmt.Errorf("apptest: arch inputs %d != dataset inputs %d", opt.Arch.Inputs(), ds.Inputs)
	}
	if opt.Arch.Outputs() != ds.Classes {
		return nil, fmt.Errorf("apptest: arch outputs %d != classes %d", opt.Arch.Outputs(), ds.Classes)
	}
	if opt.Timesteps == 0 {
		opt.Timesteps = 8
	}
	if opt.Epochs == 0 {
		opt.Epochs = 12
	}
	if margin.IsZero(opt.LearningRate) {
		opt.LearningRate = 0.05
	}
	rng := stats.NewRNG(opt.Seed)

	net := snn.New(opt.Arch, opt.Params)
	// Frozen random hidden boundaries, scaled so a typical presynaptic
	// activity charges neurons around threshold: scale ≈ 2θ/sqrt(fanIn/2).
	for b := 0; b < net.Arch.Boundaries()-1; b++ {
		fan := float64(net.Arch[b])
		scale := 4 * net.Params.Theta / math.Sqrt(fan/2)
		row := net.W[b]
		for i := range row {
			row[i] = scale * (2*rng.Float64() - 1)
		}
	}

	cl := &Classifier{Net: net, Timesteps: opt.Timesteps}
	sim := snn.NewSimulator(net)
	L := net.Arch.Layers()
	lastB := net.Arch.Boundaries() - 1
	nHidden := net.Arch[L-2]

	for epoch := 0; epoch < opt.Epochs; epoch++ {
		mistakes := 0
		for _, s := range ds.Samples {
			res, trace := sim.RunTrace(s.Input, opt.Timesteps, snn.ApplyHold, nil)
			// Penultimate rates and current prediction.
			h := make([]float64, nHidden)
			for j := 0; j < nHidden; j++ {
				h[j] = float64(bits.OnesCount64(trace.X[L-2][j]))
			}
			pred := argmax(res.SpikeCounts)
			if pred == s.Label {
				continue
			}
			mistakes++
			// Delta rule on the output boundary, clamped to the
			// programmable range.
			for j := 0; j < nHidden; j++ {
				if margin.IsZero(h[j]) {
					continue
				}
				d := opt.LearningRate * h[j]
				up := net.Entry(lastB, j, s.Label) + d
				dn := net.Entry(lastB, j, pred) - d
				net.SetEntry(lastB, j, s.Label, clamp(up, net.Params.WMin(), net.Params.WMax))
				net.SetEntry(lastB, j, pred, clamp(dn, net.Params.WMin(), net.Params.WMax))
			}
		}
		if mistakes == 0 {
			break
		}
	}
	return cl, nil
}

// Predict returns the classifier's class decision for one input on the
// network sim is bound to (usually cl.Net, or the configuration as a chip
// holds it) carrying mods: the output neuron that fires most over the
// rate-coding window, the first one on a tie.
func (cl *Classifier) Predict(sim *snn.Simulator, in snn.Pattern, mods *snn.Modifiers) int {
	return argmax(sim.Run(in, cl.Timesteps, snn.ApplyHold, mods).SpikeCounts)
}

// Accuracy evaluates the classification accuracy of net carrying mods on a
// dataset, in one pass over one simulator.
func (cl *Classifier) Accuracy(net *snn.Network, ds *Dataset, mods *snn.Modifiers) float64 {
	if len(ds.Samples) == 0 {
		return 0
	}
	sim := snn.NewSimulator(net)
	ok := 0
	for _, s := range ds.Samples {
		if cl.Predict(sim, s.Input, mods) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(ds.Samples))
}

// FunctionalResult is the outcome of an application-dependent screening
// campaign.
type FunctionalResult struct {
	Total    int
	Detected int
	// AccuracyImpact records, for each undetected fault index into the
	// campaign's fault list, the faulty chip's accuracy on the screening
	// set — the paper's point is that these stay high.
	UndetectedAccuracy []float64
}

// Coverage returns the functional fault coverage percentage.
func (r FunctionalResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

// FunctionalScreen runs the application-dependent test: a die is rejected
// when any of the screening samples' predictions differs from the golden
// model's. It reports coverage over the given fault list and the
// application accuracy of the faults that escape.
func (cl *Classifier) FunctionalScreen(screen *Dataset, faults []fault.Fault, values fault.Values) FunctionalResult {
	res := FunctionalResult{Total: len(faults)}
	sim := snn.NewSimulator(cl.Net)
	// Golden predictions once.
	golden := make([]int, len(screen.Samples))
	for i, s := range screen.Samples {
		golden[i] = cl.Predict(sim, s.Input, nil)
	}
	for _, f := range faults {
		mods := f.Modifiers(values)
		detected := false
		correct := 0
		for i, s := range screen.Samples {
			pred := cl.Predict(sim, s.Input, mods)
			if pred != golden[i] {
				detected = true
				break
			}
			if pred == s.Label {
				correct++
			}
		}
		if detected {
			res.Detected++
		} else {
			res.UndetectedAccuracy = append(res.UndetectedAccuracy,
				float64(correct)/float64(len(screen.Samples)))
		}
	}
	return res
}

// argmax returns the index of the largest count, the first one on a tie.
func argmax(counts []int) int {
	best := 0
	for j, c := range counts {
		if c > counts[best] {
			best = j
		}
	}
	return best
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
