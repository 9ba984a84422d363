// Package quant implements data-driven uniform symmetric weight
// quantization, replacing the Brevitas substrate of the paper. A Scheme
// snaps weights to a signed grid of 2^Bits-1 levels whose top level is the
// largest magnitude of each group (max-abs calibration); the Granularity
// decides whether the whole network, each layer boundary or each output
// channel forms a group.
//
// The paper's key observation (Section 3.1) is that generated test
// configurations use at most six distinct weight levels — 0, ±ωmax, ±ωmax/2
// and (θ+θ̂)/2 — so quantization at 4 bits or more leaves test behaviour
// intact. QuantizeNetwork makes that property measurable: it returns the
// worst-case snap error of a configuration.
package quant

import (
	"fmt"
	"math"
	"strings"

	"neurotest/internal/margin"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

// Granularity selects how many weights share one quantization scale.
// Brevitas (the paper's quantization substrate) supports all three; weight
// quantization of neural accelerators commonly uses per-channel scales.
type Granularity int

const (
	// PerNetwork uses a single scale for every weight of the network,
	// derived from the global max |w|.
	PerNetwork Granularity = iota
	// PerBoundary gives each weight matrix (layer boundary) its own scale.
	PerBoundary
	// PerChannel gives each output channel (column: all weights into one
	// postsynaptic neuron) its own scale. This is the granularity under
	// which the paper's generated configurations are *exactly*
	// representable even at 4 bits, because every column holds at most two
	// distinct non-zero magnitudes with one dominating.
	PerChannel
)

// String names the granularity for reports.
func (g Granularity) String() string {
	switch g {
	case PerNetwork:
		return "per-network"
	case PerBoundary:
		return "per-boundary"
	case PerChannel:
		return "per-channel"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// ParseGranularity reads a granularity as requests name it: "network",
// "boundary" or "channel" in any case, surrounding space ignored; the
// empty string selects the default, PerChannel.
func ParseGranularity(s string) (Granularity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "channel":
		return PerChannel, nil
	case "boundary":
		return PerBoundary, nil
	case "network":
		return PerNetwork, nil
	}
	return 0, fmt.Errorf("unknown granularity %q (want network, boundary or channel)", s)
}

// Scheme is a data-driven quantization scheme: scales are derived from the
// weights being quantized (max-abs calibration, the Brevitas default) rather
// than fixed ahead of time.
type Scheme struct {
	Bits int
	Gran Granularity
}

// NewScheme validates and returns a scheme. Bit widths outside [2, 16] and
// unknown granularities are configuration errors, typically from CLI flags.
func NewScheme(bits int, gran Granularity) (Scheme, error) {
	if bits < 2 || bits > 16 {
		return Scheme{}, fmt.Errorf("quant: bit width must be in [2,16], got %d", bits)
	}
	if gran != PerNetwork && gran != PerBoundary && gran != PerChannel {
		return Scheme{}, fmt.Errorf("quant: unknown granularity %v", gran)
	}
	return Scheme{Bits: bits, Gran: gran}, nil
}

// String renders the scheme, e.g. "8-bit per-channel".
func (s Scheme) String() string { return fmt.Sprintf("%d-bit %v", s.Bits, s.Gran) }

func (s Scheme) halfLevels() float64 {
	return float64(int(1)<<uint(s.Bits-1) - 1)
}

// snap quantizes w on a grid whose largest magnitude maxAbs maps exactly to
// the top level. A zero maxAbs collapses the whole group to zero.
func (s Scheme) snap(w, maxAbs float64) float64 {
	if margin.IsZero(maxAbs) {
		return 0
	}
	step := maxAbs / s.halfLevels()
	level := math.Round(w / step)
	if h := s.halfLevels(); level > h {
		level = h
	} else if level < -h {
		level = -h
	}
	return level * step
}

// QuantizeNetwork quantizes every weight of net in place using max-abs
// calibrated scales at the scheme's granularity, and returns the worst snap
// error.
func (s Scheme) QuantizeNetwork(net *snn.Network) float64 {
	worst := 0.0
	update := func(w, maxAbs float64) float64 {
		q := s.snap(w, maxAbs)
		if e := math.Abs(q - w); e > worst {
			worst = e
		}
		return q
	}
	switch s.Gran {
	case PerNetwork:
		maxAbs := net.MaxAbsWeight()
		for b := range net.W {
			row := net.W[b]
			for i, w := range row {
				row[i] = update(w, maxAbs)
			}
		}
	case PerBoundary:
		for b := range net.W {
			row := net.W[b]
			maxAbs := 0.0
			for _, w := range row {
				if a := math.Abs(w); a > maxAbs {
					maxAbs = a
				}
			}
			for i, w := range row {
				row[i] = update(w, maxAbs)
			}
		}
	case PerChannel:
		for b := range net.W {
			nIn, nOut := net.Arch[b], net.Arch[b+1]
			row := net.W[b]
			for j := 0; j < nOut; j++ {
				maxAbs := 0.0
				for i := 0; i < nIn; i++ {
					if a := math.Abs(row[i*nOut+j]); a > maxAbs {
						maxAbs = a
					}
				}
				for i := 0; i < nIn; i++ {
					idx := i*nOut + j
					row[idx] = update(row[idx], maxAbs)
				}
			}
		}
	default:
		panic(fmt.Sprintf("quant: unknown granularity %v", s.Gran))
	}
	return worst
}

// QuantizedClone returns a quantized copy of net and the worst snap error,
// leaving net untouched.
func (s Scheme) QuantizedClone(net *snn.Network) (*snn.Network, float64) {
	c := net.Clone()
	worst := s.QuantizeNetwork(c)
	return c, worst
}

// Program returns ts as a chip's weight memory programs it under scheme s:
// every configuration quantized once. A nil scheme programs ideal weights
// and returns ts itself. Otherwise the result is a copy of the TestSet
// whose Configs are quantized clones and whose Items slice is shared
// read-only with ts; ts is left untouched.
func Program(ts *pattern.TestSet, s *Scheme) *pattern.TestSet {
	if s == nil {
		return ts
	}
	out := *ts
	out.Configs = make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		out.Configs[i], _ = s.QuantizedClone(cfg)
	}
	return &out
}
