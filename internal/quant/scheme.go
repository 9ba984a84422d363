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
	netMax := s.networkMax(net)
	worst := 0.0
	for b, w := range net.W {
		if e := s.quantize(w, w, net.Arch[b+1], netMax); e > worst {
			worst = e
		}
	}
	return worst
}

// networkMax returns the calibration a PerNetwork scheme reads beyond each
// boundary's own weights, net's max |w|, and 0 for the other granularities,
// whose scales read only the boundary.
func (s Scheme) networkMax(net *snn.Network) float64 {
	if s.Gran == PerNetwork {
		return net.MaxAbsWeight()
	}
	return 0
}

// quantize writes src, one boundary's weights over nOut columns, into dst
// (which may be src) quantized at the scheme's granularity, and returns
// the worst snap error. A PerNetwork scheme scales by netMax, the whole
// network's max |w|; the others derive their scales from src alone.
func (s Scheme) quantize(dst, src []float64, nOut int, netMax float64) float64 {
	worst := 0.0
	update := func(i int, maxAbs float64) {
		q := s.snap(src[i], maxAbs)
		if e := math.Abs(q - src[i]); e > worst {
			worst = e
		}
		dst[i] = q
	}
	switch s.Gran {
	case PerNetwork:
		for i := range src {
			update(i, netMax)
		}
	case PerBoundary:
		maxAbs := 0.0
		for _, w := range src {
			if a := math.Abs(w); a > maxAbs {
				maxAbs = a
			}
		}
		for i := range src {
			update(i, maxAbs)
		}
	case PerChannel:
		for j := 0; j < nOut; j++ {
			maxAbs := 0.0
			for i := j; i < len(src); i += nOut {
				if a := math.Abs(src[i]); a > maxAbs {
					maxAbs = a
				}
			}
			for i := j; i < len(src); i += nOut {
				update(i, maxAbs)
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
// whose Configs are new networks, each weight its QuantizedClone's bit for
// bit, and whose Items slice is shared read-only with ts; ts is left
// untouched.
//
// Configurations that share a boundary array (core.Generator's do) keep
// sharing it: an array is programmed once per calibration it reads. Per
// boundary and per channel that is the array alone; per network it is
// also the network's max |w|, so an array shared by networks of two
// maxima programs to two arrays. The result is read-only like its source.
func Program(ts *pattern.TestSet, s *Scheme) *pattern.TestSet {
	if s == nil {
		return ts
	}
	type source struct {
		b      int
		w      *float64
		netMax float64
	}
	programmed := make(map[source][]float64)
	out := *ts
	out.Configs = make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		netMax := s.networkMax(cfg)
		w := make([][]float64, len(cfg.W))
		for b, src := range cfg.W {
			k := source{b: b, w: &src[0], netMax: netMax}
			q, ok := programmed[k]
			if !ok {
				q = make([]float64, len(src))
				s.quantize(q, src, cfg.Arch[b+1], netMax)
				programmed[k] = q
			}
			w[b] = q
		}
		out.Configs[i] = &snn.Network{Arch: cfg.Arch, Params: cfg.Params, W: w}
	}
	return &out
}
