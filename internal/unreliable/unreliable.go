// Package unreliable models chips under test that do not answer the same
// way twice. The paper's evaluation (Sections 5.2–5.3) assumes a fault is
// either present or absent and that the ATE reads spike counts perfectly;
// production test floors face intermittent faults and flaky readout
// channels. This package supplies those reliability models as composable,
// deterministic functions of an injected RNG, so that every simulated test
// session is reproducible bit-for-bit from its seed — the same discipline
// internal/stats imposes on variation sampling.
//
// Two models are provided:
//
//   - Intermittence gates a die's physical defect per applied test item,
//     either independently (active with probability P on every item) or as
//     a two-state Markov chain (burst mode: an active fault persists across
//     consecutive items with probability Persist, the classic model of
//     contact-resistance and marginal-timing intermittents).
//   - Readout corrupts what the tester observes: per-output spike-count
//     jitter (±k with probability JitterP per channel) and dropped
//     readouts, where a read returns ErrDropped instead of a Result.
//
// A Profile composes intermittence and readout; a Session is one chip's
// realisation of a profile, holding private RNG streams so that readout
// noise never perturbs the fault-activation sequence (and vice versa).
package unreliable

import (
	"errors"
	"fmt"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// ErrDropped is returned by Session.Observe when the readout channel loses
// the response: the tester got no answer at all for the applied item (as
// opposed to a wrong answer) and must re-apply it.
var ErrDropped = errors.New("unreliable: readout dropped")

// Intermittence describes when a die's physical defect is active. The zero
// value means "never active"; Always() is the reliable, permanently-present
// fault of the paper's evaluation.
type Intermittence struct {
	// P is the probability that the fault is active while an item is
	// applied. In burst mode it is the activation probability from the
	// inactive state.
	P float64
	// Burst enables the two-state Markov chain: activation persists across
	// consecutive items instead of being redrawn independently.
	Burst bool
	// Persist is P(active on next item | active now) in burst mode.
	Persist float64
}

// Always returns the permanently-active regime (the paper's fault model).
func Always() Intermittence { return Intermittence{P: 1} }

// String renders the regime for reports.
func (m Intermittence) String() string {
	if m.P >= 1 && !m.Burst {
		return "always active"
	}
	if m.Burst {
		return fmt.Sprintf("burst p=%g persist=%g", m.P, m.Persist)
	}
	return fmt.Sprintf("intermittent p=%g", m.P)
}

// Readout describes corruption of the observed spike-count vector. The zero
// value is a perfect readout channel.
type Readout struct {
	// JitterP is the per-output probability that the reported spike count
	// is shifted by a uniform ±k, k in [1, JitterMag].
	JitterP float64
	// JitterMag is the maximum jitter magnitude; 0 is treated as 1.
	JitterMag int
	// DropP is the probability that the whole readout is lost and the read
	// returns ErrDropped instead of a Result.
	DropP float64
}

// Perfect reports whether the channel corrupts nothing.
func (r Readout) Perfect() bool { return r.JitterP <= 0 && r.DropP <= 0 }

// String renders the channel for reports.
func (r Readout) String() string {
	if r.Perfect() {
		return "perfect readout"
	}
	mag := r.JitterMag
	if mag < 1 {
		mag = 1
	}
	return fmt.Sprintf("readout jitter=%g±%d drop=%g", r.JitterP, mag, r.DropP)
}

// Profile composes the reliability models of one chip-under-test.
type Profile struct {
	Intermittence Intermittence
	Readout       Readout
}

// Reliable returns the profile of the paper's deterministic evaluation: the
// defect is always present and the readout is perfect. The tester's
// RunChip, escape and overkill campaigns are sessions under this profile
// and the zero retest policy, so the paper's evaluation is a strict special
// case of the unreliable machinery.
func Reliable() Profile { return Profile{Intermittence: Always()} }

// String renders the profile for reports.
func (p Profile) String() string {
	return fmt.Sprintf("%v, %v", p.Intermittence, p.Readout)
}

// Session is one chip's realisation of a Profile. It owns two private RNG
// streams — fault activation and readout corruption — derived from one seed,
// so the two noise sources cannot perturb each other's sequences and every
// session replays identically from its seed.
//
// A Session is not safe for concurrent use; give each simulated chip its
// own (they are cheap).
type Session struct {
	prof   Profile
	act    *stats.RNG
	read   *stats.RNG
	active bool

	// Activations counts FaultActive calls that returned true.
	Activations int
	// Drops counts readouts lost to ErrDropped.
	Drops int
	// Jitters counts output channels whose count was shifted.
	Jitters int
}

// Stream-decorrelation salts for the per-session RNGs (arbitrary odd
// constants; fixed forever for reproducibility).
const (
	actSalt  = 0xA3C59AC2F0D9BD47
	readSalt = 0x1B56C4E9E9C7A125
)

// NewSession starts a session for one chip. Equal (profile, seed) pairs
// replay identical noise.
func (p Profile) NewSession(seed uint64) *Session {
	return &Session{
		prof: p,
		act:  stats.NewRNG(seed ^ actSalt),
		read: stats.NewRNG(seed ^ readSalt),
	}
}

// FaultActive advances the activation process by one applied item and
// reports whether the die's defect is active during it. Call exactly once
// per item application (including retests — an intermittent fault may well
// appear or vanish on a retest, which is the whole point).
func (s *Session) FaultActive() bool {
	p := s.prof.Intermittence.P
	if s.prof.Intermittence.Burst && s.active {
		p = s.prof.Intermittence.Persist
	}
	// Float64 is in [0,1), so p >= 1 is always active and p <= 0 never is.
	s.active = s.act.Float64() < p
	if s.active {
		s.Activations++
	}
	return s.active
}

// Observe passes a simulated chip response through the readout channel:
// it may drop the response entirely (ErrDropped) or jitter individual
// spike counts. The input Result is never mutated.
func (s *Session) Observe(r snn.Result) (snn.Result, error) {
	ro := s.prof.Readout
	if ro.Perfect() {
		return r, nil
	}
	if ro.DropP > 0 && s.read.Float64() < ro.DropP {
		s.Drops++
		return snn.Result{}, ErrDropped
	}
	if ro.JitterP <= 0 {
		return r, nil
	}
	mag := ro.JitterMag
	if mag < 1 {
		mag = 1
	}
	out := make([]int, len(r.SpikeCounts))
	copy(out, r.SpikeCounts)
	for i := range out {
		if s.read.Float64() >= ro.JitterP {
			continue
		}
		k := 1
		if mag > 1 {
			k += s.read.Intn(mag)
		}
		if s.read.Uint64()&1 == 0 {
			k = -k
		}
		out[i] += k
		if out[i] < 0 {
			out[i] = 0 // a counter cannot report negative spikes
		}
		s.Jitters++
	}
	return snn.Result{SpikeCounts: out}, nil
}
