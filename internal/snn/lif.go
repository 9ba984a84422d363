package snn

// Step advances one LIF neuron by one timestep: the paper's Eq. 1a/1b and
// the one definition of the membrane update. The potential mp leaks and
// integrates the weighted input sum in, giving the pre-reset potential v.
// The neuron fires when v exceeds th strictly, or unconditionally when
// force is set (a neuron stuck at spiking). next is the potential carried
// into the following timestep: v, or Reset(v, th, subtract) after firing.
//
// The simulator, the incremental fault simulator and the packed kernel all
// call Step in their innermost loops, so it must stay inlinable: make inline
// fails when the compiler stops inlining it at any non-test call site.
func Step(mp, in, leak, th float64, subtract, force bool) (v, next float64, fired bool) {
	v = leak*mp + in
	// Returning from inside the firing branch lets the compiler fold a
	// caller's `if fired` into this branch once Step is inlined, so the
	// threshold costs one branch. Computing fired first and branching on
	// it twice made callers set their spike bit with a conditional move on
	// every call, about 10 % slower on BenchmarkCollapse/random-matrix.
	if v > th || force {
		return v, Reset(v, th, subtract), true
	}
	return v, v, false
}

// Reset is the reset half of Step: the potential a neuron that fired at
// pre-reset potential v keeps — v − th under subtract reset, 0 under zero
// reset. Together with a Trace's V and X it rebuilds, bit for bit, the
// potential the simulator carried into the next timestep.
func Reset(v, th float64, subtract bool) float64 {
	if subtract {
		return v - th
	}
	return 0
}
