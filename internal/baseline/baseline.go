// Package baseline provides the two comparators of the paper's evaluation,
// rebuilt as open simulations of the mechanism class each represents:
//
//   - ATCPG (Chiu et al., ICCAD'22, reference [3]) — automatic test
//     configuration and pattern generation: a statistical flow that samples
//     random configurations and random patterns and keeps, by greedy
//     set-cover over fault simulation, the ones that detect new faults.
//
//   - Test compression for neuromorphic chips (Chen & Li, NTU thesis 2023,
//     reference [2]) — the same statistical flow constrained to a small set
//     of coarse, compressible configurations (a three-symbol weight
//     alphabet), trading configuration count for pattern count.
//
// Both original implementations are closed source, so this package rebuilds
// the *behaviourally relevant* properties the paper compares against: test
// sets that are orders of magnitude longer than the algorithmic method
// because (a) statistical generation needs many patterns for the same
// coverage and (b) statistical pass/fail decisions are made on firing-rate
// estimates, which demand hundreds to thousands of repeated applications
// per pattern, whereas the deterministic method needs exactly one.
//
// Repetition model: estimating a firing rate to resolution δ with z-sigma
// confidence requires R ≥ z²/(4δ²) Bernoulli trials. ATCPG calibrates δ per
// campaign (drawn from its seeded RNG, like a tuning run would), giving
// repetitions in the several-hundreds; the compression flow fixes R = 1000,
// the value its protocol uses for every fault model in the paper's tables.
package baseline

import (
	"context"
	"fmt"
	"math"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/margin"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// Options parameterizes a baseline campaign. Zero fields take defaults.
type Options struct {
	Arch   snn.Arch
	Params snn.Params
	Values fault.Values

	// Seed drives every stochastic choice of the campaign.
	Seed uint64
	// NumConfigs is how many candidate configurations to sample.
	NumConfigs int
	// PatternsPerConfig is how many candidate patterns to sample per
	// configuration.
	PatternsPerConfig int
	// Density is the probability that a candidate pattern asserts an input.
	Density float64
	// FaultSample bounds the faults used to guide greedy selection.
	FaultSample int
	// Timesteps is the observation window.
	Timesteps int
	// Confidence is the z of the repetition model.
	Confidence float64
	// WeightLevels is the size of the random weight alphabet; 0 means
	// continuous uniform weights.
	WeightLevels int
	// FixedRepeat forces a repetition count (the compression flow's 1000);
	// 0 derives it from the rate-estimation model.
	FixedRepeat int
}

func (o *Options) setDefaults() {
	if o.NumConfigs == 0 {
		o.NumConfigs = 8
	}
	if o.PatternsPerConfig == 0 {
		o.PatternsPerConfig = 160
	}
	if margin.IsZero(o.Density) {
		o.Density = 0.25
	}
	if o.FaultSample == 0 {
		o.FaultSample = 1200
	}
	if o.Timesteps == 0 {
		o.Timesteps = 4
	}
	if margin.IsZero(o.Confidence) {
		o.Confidence = 2.5
	}
}

// ATCPGOptions returns the default campaign options of the simulated
// ATCPG [3] flow.
func ATCPGOptions(arch snn.Arch, params snn.Params, values fault.Values, seed uint64) Options {
	o := Options{Arch: arch, Params: params, Values: values, Seed: seed}
	o.setDefaults()
	return o
}

// CompressionOptions returns the default campaign options of the simulated
// test-compression [2] flow: few coarse configurations, more candidate
// patterns, fixed 1000x repetition.
func CompressionOptions(arch snn.Arch, params snn.Params, values fault.Values, seed uint64) Options {
	o := Options{Arch: arch, Params: params, Values: values, Seed: seed}
	o.setDefaults()
	o.NumConfigs = 3
	o.PatternsPerConfig = 420
	// Compressible alphabet: weights drawn from an evenly spaced codebook
	// of 65 entries (6-bit codes). Coarser alphabets cannot activate
	// threshold-shift faults at all: every weighted sum lands on codebook
	// multiples, and with a step above θ−θ̂ no sum ever falls between the
	// good and the faulty threshold.
	o.WeightLevels = 65
	o.FixedRepeat = 1000
	return o
}

// Generate runs one baseline campaign for one fault model and returns the
// selected test set. The campaign:
//
//  1. samples NumConfigs random configurations and PatternsPerConfig random
//     patterns under each;
//  2. fault-simulates every candidate item against a stratified sample of
//     the fault universe;
//  3. greedily selects items by marginal coverage until no candidate
//     detects a new sampled fault;
//  4. assigns the repetition count from the firing-rate model.
func Generate(name string, kind fault.Kind, opt Options) (*pattern.TestSet, error) {
	opt.setDefaults()
	if err := opt.Arch.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(opt.Seed)

	// Candidate pool.
	candidates := pattern.NewTestSet(name+"-candidates", opt.Arch, opt.Params)
	for c := 0; c < opt.NumConfigs; c++ {
		cfg := randomConfig(opt, rng)
		ci := candidates.AddConfig(cfg)
		for p := 0; p < opt.PatternsPerConfig; p++ {
			pat := randomPattern(opt, rng)
			candidates.AddItem(pattern.Item{
				Label:       fmt.Sprintf("%s %v c%d p%d", name, kind, c, p),
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   opt.Timesteps,
				Repeat:      1,
			})
		}
	}

	// Guidance sample of the fault universe, drawn by index so a sampled
	// universe is never built.
	var sample []fault.Fault
	if n := fault.UniverseSize(opt.Arch, kind); opt.FaultSample > 0 && opt.FaultSample < n {
		perm := rng.Perm(n)
		sample = make([]fault.Fault, opt.FaultSample)
		for i := range sample {
			sample[i], _ = fault.UniverseAt(opt.Arch, kind, perm[i])
		}
	} else {
		sample = fault.Universe(opt.Arch, kind)
	}

	// Detection matrix via the packed fault-simulation kernel.
	rows, err := faultsim.NewGolden(candidates).NewEvaluator(opt.Values).DetectsMatrix(context.TODO(), sample)
	if err != nil {
		return nil, fmt.Errorf("baseline: detection matrix: %w", err)
	}
	nItems := len(candidates.Items)
	detects := make([][]int, nItems) // item -> indices of sample faults it detects
	for fi, row := range rows {
		for it := 0; it < nItems; it++ {
			if row[it/64]&(1<<uint(it%64)) != 0 {
				detects[it] = append(detects[it], fi)
			}
		}
	}

	// Greedy set cover.
	covered := make([]bool, len(sample))
	used := make([]bool, nItems)
	var selected []int
	for {
		best, bestGain := -1, 0
		for it := 0; it < nItems; it++ {
			if used[it] {
				continue
			}
			gain := 0
			for _, fi := range detects[it] {
				if !covered[fi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = it, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		selected = append(selected, best)
		for _, fi := range detects[best] {
			covered[fi] = true
		}
	}

	repeat := opt.FixedRepeat
	if repeat == 0 {
		repeat = repetitionFromRateModel(opt, rng)
	}

	// Assemble the final set, keeping only referenced configurations.
	out := pattern.NewTestSet(name, opt.Arch, opt.Params)
	cfgMap := make(map[int]int)
	for _, it := range selected {
		item := candidates.Items[it]
		ci, ok := cfgMap[item.ConfigIndex]
		if !ok {
			ci = out.AddConfig(candidates.Configs[item.ConfigIndex])
			cfgMap[item.ConfigIndex] = ci
		}
		out.AddItem(pattern.Item{
			Label:       item.Label,
			ConfigIndex: ci,
			Pattern:     item.Pattern,
			Timesteps:   item.Timesteps,
			Repeat:      repeat,
		})
	}
	if len(out.Items) == 0 {
		// Degenerate campaign (nothing detected anything): keep one item so
		// downstream metrics remain well-defined.
		ci := out.AddConfig(candidates.Configs[0])
		out.AddItem(pattern.Item{
			Label:       name + " fallback",
			ConfigIndex: ci,
			Pattern:     candidates.Items[0].Pattern,
			Timesteps:   opt.Timesteps,
			Repeat:      repeat,
		})
	}
	return out, nil
}

// randomConfig samples one candidate configuration. Each boundary draws a
// magnitude scale log-uniformly from [0.02, 1]·ωmax before sampling
// weights, so the candidate pool mixes saturating boundaries with
// near-threshold ones — the diversity a guided (ML/statistical) generator
// discovers, without which threshold-shift faults are almost never
// activated. With WeightLevels > 1, weights snap to an evenly spaced
// alphabet of that many levels over the full range (the compression flow's
// codebook).
func randomConfig(opt Options, rng *stats.RNG) *snn.Network {
	cfg := snn.New(opt.Arch, opt.Params)
	wmax := opt.Params.WMax
	for b := range cfg.W {
		scale := wmax * math.Pow(0.02, rng.Float64())
		row := cfg.W[b]
		for i := range row {
			w := -scale + 2*scale*rng.Float64()
			if opt.WeightLevels > 1 {
				step := 2 * wmax / float64(opt.WeightLevels-1)
				w = math.Round(w/step) * step
			}
			row[i] = w
		}
	}
	return cfg
}

// randomPattern samples one candidate pattern with the campaign's density.
func randomPattern(opt Options, rng *stats.RNG) snn.Pattern {
	p := snn.NewPattern(opt.Arch.Inputs())
	for i := range p {
		p[i] = rng.Float64() < opt.Density
	}
	return p
}

// repetitionFromRateModel derives the per-pattern repetition count: the
// campaign calibrates the firing-rate resolution δ it needs (a tuning run
// modelled as a seeded draw in [0.04, 0.09]) and applies R = z²/(4δ²).
func repetitionFromRateModel(opt Options, rng *stats.RNG) int {
	delta := 0.04 + 0.05*rng.Float64()
	r := int(math.Ceil(opt.Confidence * opt.Confidence / (4 * delta * delta)))
	if r < 50 {
		r = 50
	}
	if r > 2000 {
		r = 2000
	}
	return r
}
