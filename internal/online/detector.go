package online

import (
	"fmt"
	"math"

	"neurotest/internal/margin"
)

// Config parameterizes the drift detectors. The zero value is completed by
// Normalize; DefaultConfig returns the tuned defaults the online
// experiment validates (false-positive rate ≤ 1 % on fault-free chips; see
// EXPERIMENTS.md).
type Config struct {
	// ZThreshold alarms instantly when any channel's |z| exceeds it — the
	// large-shift detector (default 6).
	ZThreshold float64
	// CUSUMSlack is the per-observation allowance k subtracted from the
	// standardized drift before it accumulates; drifts below k·σ are
	// invisible to the CUSUM (default 0.5).
	CUSUMSlack float64
	// CUSUMThreshold is the alarm level h of the two-sided CUSUM — the
	// small-persistent-shift detector (default 12).
	CUSUMThreshold float64
	// WarmUp is how many observations must accumulate before either
	// detector may alarm, so a short initial transient cannot condemn a
	// chip (default 16; CUSUM state still accumulates during warm-up).
	WarmUp int
	// MinStd floors the golden σ used for standardization, so degenerate
	// channels (a layer whose golden count is workload-invariant) cannot
	// produce infinite z-scores (default 0.5 — half a spike).
	MinStd float64
}

// DefaultConfig returns the tuned default thresholds.
func DefaultConfig() Config {
	return Config{ZThreshold: 6, CUSUMSlack: 0.5, CUSUMThreshold: 12, WarmUp: 16, MinStd: 0.5}
}

// Normalize fills zero fields with the defaults and returns the config.
// A negative WarmUp is treated as 0 (alarms armed immediately).
func (c Config) Normalize() Config {
	d := DefaultConfig()
	if margin.IsZero(c.ZThreshold) {
		c.ZThreshold = d.ZThreshold
	}
	if margin.IsZero(c.CUSUMSlack) {
		c.CUSUMSlack = d.CUSUMSlack
	}
	if margin.IsZero(c.CUSUMThreshold) {
		c.CUSUMThreshold = d.CUSUMThreshold
	}
	if c.WarmUp == 0 {
		c.WarmUp = d.WarmUp
	}
	if c.WarmUp < 0 {
		c.WarmUp = 0
	}
	if margin.IsZero(c.MinStd) {
		c.MinStd = d.MinStd
	}
	return c
}

// Validate rejects non-finite or non-positive detector knobs — the NaN
// that would otherwise disarm every comparison forever.
func (c Config) Validate() error {
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("online: %s must be finite and positive, got %g", name, v)
		}
		return nil
	}
	if err := pos("z threshold", c.ZThreshold); err != nil {
		return err
	}
	if math.IsNaN(c.CUSUMSlack) || math.IsInf(c.CUSUMSlack, 0) || c.CUSUMSlack < 0 {
		return fmt.Errorf("online: CUSUM slack must be finite and >= 0, got %g", c.CUSUMSlack)
	}
	if err := pos("CUSUM threshold", c.CUSUMThreshold); err != nil {
		return err
	}
	if c.WarmUp < 0 {
		return fmt.Errorf("online: warm-up must be >= 0, got %d", c.WarmUp)
	}
	return pos("minimum deviation", c.MinStd)
}

// Detector is the streaming decision state of one monitored chip: a
// per-channel two-sided CUSUM over standardized spike-count drift plus an
// instantaneous z-score test. Observations are standardized against the
// golden reference; the decision sequence is a pure function of
// (golden, config, observation sequence), so it replays bit-for-bit.
//
// A Detector is not safe for concurrent use; give each chip its own.
type Detector struct {
	cfg Config
	g   *Golden
	n   int
	pos []float64 // CUSUM upward drift accumulators, one per channel
	neg []float64 // CUSUM downward drift accumulators
}

// NewDetector builds a detector against a validated golden reference.
// cfg is normalized (zero fields take defaults) before validation.
func NewDetector(g *Golden, cfg Config) (*Detector, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg: cfg,
		g:   g,
		pos: make([]float64, g.Channels()),
		neg: make([]float64, g.Channels()),
	}, nil
}

// Decision is the outcome of folding one observation into the detector.
type Decision struct {
	// Observation is the 1-based index of the observation that produced
	// this decision.
	Observation int
	// Alarmed reports whether a detector crossed its threshold.
	Alarmed bool
	// Channel is the first offending monitored channel, or -1. Channel i
	// watches network layer i+1.
	Channel int
	// Detector names the crossing statistic: "z" or "cusum".
	Detector string
	// Z is the offending channel's z-score at the alarm.
	Z float64
	// Drift is the magnitude of the crossing statistic (|z| for the
	// z-detector, the CUSUM sum for the CUSUM).
	Drift float64
}

// Observe folds one observed spike-count vector into the detector and
// returns its decision. The vector width must match the golden channel
// count. Observe never panics: arbitrary (even adversarial) counts only
// move the accumulators, and every alarm is a threshold crossing of a
// finite statistic.
func (d *Detector) Observe(counts []int) (Decision, error) {
	if len(counts) != d.g.Channels() {
		return Decision{}, fmt.Errorf("online: observation width %d != %d monitored channels", len(counts), d.g.Channels())
	}
	d.n++
	dec := Decision{Observation: d.n, Channel: -1}
	armed := d.n > d.cfg.WarmUp
	for ch, c := range counts {
		sd := d.g.Std[ch]
		if sd < d.cfg.MinStd {
			sd = d.cfg.MinStd
		}
		z := (float64(c) - d.g.Mean[ch]) / sd
		// CUSUM state accumulates on every observation, warm-up included,
		// so a fault active from power-on alarms at the first armed
		// observation instead of restarting its evidence.
		d.pos[ch] = math.Max(0, d.pos[ch]+z-d.cfg.CUSUMSlack)
		d.neg[ch] = math.Max(0, d.neg[ch]-z-d.cfg.CUSUMSlack)
		if !armed || dec.Alarmed {
			continue // keep updating remaining channels; first alarm wins
		}
		switch {
		case math.Abs(z) > d.cfg.ZThreshold:
			dec = Decision{Observation: d.n, Alarmed: true, Channel: ch, Detector: "z", Z: z, Drift: math.Abs(z)}
		case d.pos[ch] > d.cfg.CUSUMThreshold:
			dec = Decision{Observation: d.n, Alarmed: true, Channel: ch, Detector: "cusum", Z: z, Drift: d.pos[ch]}
		case d.neg[ch] > d.cfg.CUSUMThreshold:
			dec = Decision{Observation: d.n, Alarmed: true, Channel: ch, Detector: "cusum", Z: z, Drift: d.neg[ch]}
		}
	}
	return dec, nil
}
