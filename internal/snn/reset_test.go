package snn

import "testing"

func TestResetModeString(t *testing.T) {
	if ResetZero.String() != "reset-zero" || ResetSubtract.String() != "reset-subtract" {
		t.Errorf("reset mode strings: %v %v", ResetZero, ResetSubtract)
	}
	if ResetMode(7).String() != "ResetMode(7)" {
		t.Errorf("unknown mode string: %v", ResetMode(7))
	}
	if err := (Params{Theta: 0.5, Leak: 0.9, WMax: 10, Reset: ResetMode(7)}).Validate(); err == nil {
		t.Errorf("bad reset mode accepted")
	}
}

func TestResetSubtractRetainsOverdrive(t *testing.T) {
	// A heavily overdriven neuron keeps firing on retained charge with
	// subtract reset, but fires only once with zero reset.
	mk := func(mode ResetMode) int {
		net := New(Arch{1, 1, 1}, Params{Theta: 0.5, Leak: 1, WMax: 10, Reset: mode})
		net.SetEntry(0, 0, 0, 2.1) // overdrive: 4 thresholds worth of charge
		net.SetEntry(1, 0, 0, 10)
		sim := NewSimulator(net)
		res := sim.Run(Pattern{true}, 5, ApplyOnce, nil)
		return res.SpikeCounts[0]
	}
	if got := mk(ResetZero); got != 1 {
		t.Errorf("reset-zero output count = %d, want 1", got)
	}
	// Hidden neuron: 2.1 → fire (1.6) → fire (1.1) → fire (0.6) → fire
	// (0.1) → silent: 4 spikes. The output neuron receives 10 per spike
	// and itself retains overdrive (10 − 0.5 = 9.5 after the first fire),
	// so it keeps firing on stored charge through the whole window.
	if got := mk(ResetSubtract); got != 5 {
		t.Errorf("reset-subtract output count = %d, want 5", got)
	}
}

func TestResetSubtractWithLeak(t *testing.T) {
	net := New(Arch{1, 1}, Params{Theta: 0.5, Leak: 0.5, WMax: 10, Reset: ResetSubtract})
	net.SetEntry(0, 0, 0, 1.2)
	sim := NewSimulator(net)
	_, trace := sim.RunTrace(Pattern{true}, 3, ApplyOnce, nil)
	// t=0: mp 1.2 > 0.5 fire, mp 0.7. t=1: mp 0.35, silent. t=2: 0.175.
	if got := trace.X[1][0]; got != 0b001 {
		t.Errorf("train = %b, want 001", got)
	}
}
