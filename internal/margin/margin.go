// Package margin analyses the variation tolerance of a test program by
// measuring, for every neuron the program exercises, how far its weighted
// input sum sits from the firing threshold — the Ω margins that Section 4
// of the paper reasons about symbolically.
//
// For a neuron receiving charge y from s simultaneously spiking inputs
// under i.i.d. N(0, σ²) weight errors, the charge error is N(0, s·σ²); the
// neuron's decision survives variation while c·sqrt(s)·σ < |y − θ| (Eq. 4
// generalised from the worst case to every neuron). The analyser evaluates
// the good-chip trace of each item, finds the binding (smallest-tolerance)
// neuron, and converts it into the largest σ the whole program tolerates
// at confidence c — a quantitative prediction of where Fig. 4's overkill
// onset must lie.
package margin

import (
	"fmt"
	"math"
	"sort"

	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

// NeuronMargin is the analysis of one neuron under one test item.
type NeuronMargin struct {
	Item   int
	Neuron snn.NeuronID
	// Timestep is when the binding decision happens.
	Timestep int
	// Charge is the weighted input sum y at that timestep.
	Charge float64
	// Margin is |MP − θ| at the decision (distance to flipping).
	Margin float64
	// Stimulated is how many presynaptic neurons spiked into the sum —
	// the s of Eq. 4; 0 means no charge flowed and no weight error can
	// accumulate (infinite tolerance).
	Stimulated int
	// SigmaTolerance is the largest σ keeping this decision stable at the
	// analysis confidence: margin / (c·sqrt(s)). +Inf when s == 0.
	SigmaTolerance float64
}

// Report is the margin analysis of a whole test program.
type Report struct {
	// Confidence is the c used (3 = 99.7 %).
	Confidence float64
	// Binding is the worst (smallest-tolerance) neuron decision of the
	// whole program: the first to flip as σ grows.
	Binding NeuronMargin
	// SigmaTolerance is the program-level tolerance = Binding's.
	SigmaTolerance float64
	// Worst lists the k smallest-tolerance decisions, ascending.
	Worst []NeuronMargin
}

// Analyze evaluates the good-chip margins of every item of ts at
// confidence c, reporting the k worst decisions. Configurations are used
// as stored (quantize first if the deployment does). A non-positive
// confidence is a configuration error (it reaches here straight from the
// CLI's -confidence flag).
func Analyze(ts *pattern.TestSet, c float64, k int) (Report, error) {
	if c <= 0 {
		return Report{}, fmt.Errorf("margin: confidence must be positive, got %g", c)
	}
	if k < 1 {
		k = 1
	}
	var all []NeuronMargin
	theta := ts.Params.Theta
	arch := ts.Arch
	stim := make([]int, snn.MaxTimesteps)

	sims := make(map[int]*snn.Simulator)
	for itemIdx, it := range ts.Items {
		sim, ok := sims[it.ConfigIndex]
		if !ok {
			sim = snn.NewSimulator(ts.Configs[it.ConfigIndex])
			sims[it.ConfigIndex] = sim
		}
		_, trace := sim.RunTrace(it.Pattern, it.Timesteps, it.Mode(), nil)

		// Walk every neuron's recorded pre-reset potentials, tracking the
		// binding decision per neuron.
		for layer := 1; layer < arch.Layers(); layer++ {
			// Spiking presynaptic neurons per timestep: the s of Eq. 4,
			// shared by every neuron of the layer.
			for t := 0; t < it.Timesteps; t++ {
				stim[t] = 0
				for _, x := range trace.X[layer-1] {
					if x&(1<<uint(t)) != 0 {
						stim[t]++
					}
				}
			}
			width := arch[layer]
			for j := 0; j < width; j++ {
				best := NeuronMargin{
					Item:           itemIdx,
					Neuron:         snn.NeuronID{Layer: layer, Index: j},
					Margin:         math.Inf(1),
					SigmaTolerance: math.Inf(1),
				}
				for t := 0; t < it.Timesteps; t++ {
					s := stim[t]
					m := math.Abs(trace.V[layer][t*width+j] - theta)
					tol := math.Inf(1)
					if s > 0 {
						tol = m / (c * math.Sqrt(float64(s)))
					}
					if tol < best.SigmaTolerance {
						best.Timestep = t
						best.Charge = trace.Y[layer][t*width+j]
						best.Margin = m
						best.Stimulated = s
						best.SigmaTolerance = tol
					}
				}
				if !math.IsInf(best.SigmaTolerance, 1) {
					all = append(all, best)
				}
			}
		}
	}

	rep := Report{Confidence: c}
	if len(all) == 0 {
		rep.SigmaTolerance = math.Inf(1)
		rep.Binding.SigmaTolerance = math.Inf(1)
		rep.Binding.Margin = math.Inf(1)
		return rep, nil
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].SigmaTolerance < all[j].SigmaTolerance
	})
	if k > len(all) {
		k = len(all)
	}
	rep.Worst = all[:k]
	rep.Binding = all[0]
	rep.SigmaTolerance = all[0].SigmaTolerance
	return rep, nil
}

// String renders one neuron margin for reports.
func (m NeuronMargin) String() string {
	return fmt.Sprintf("item %d %v t=%d: y=%.3f margin=%.3f over %d spiking inputs → σ ≤ %.4f",
		m.Item, m.Neuron, m.Timestep, m.Charge, m.Margin, m.Stimulated, m.SigmaTolerance)
}

// String renders the report headline.
func (r Report) String() string {
	return fmt.Sprintf("program tolerates σ ≤ %.4f at %.1fσ confidence; binding: %v",
		r.SigmaTolerance, r.Confidence, r.Binding)
}
