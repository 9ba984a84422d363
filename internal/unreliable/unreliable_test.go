package unreliable

import (
	"math"
	"testing"

	"neurotest/internal/snn"
)

func TestAlwaysAndNeverActive(t *testing.T) {
	s := Profile{Intermittence: Always()}.NewSession(1)
	for i := 0; i < 100; i++ {
		if !s.FaultActive() {
			t.Fatalf("Always inactive at item %d", i)
		}
	}
	if s.Activations != 100 {
		t.Errorf("Activations = %d", s.Activations)
	}
	z := Profile{}.NewSession(1)
	for i := 0; i < 100; i++ {
		if z.FaultActive() {
			t.Fatalf("zero intermittence active at item %d", i)
		}
	}
}

func TestIntermittenceRate(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := Profile{Intermittence: Intermittence{P: p}}.NewSession(42)
		n := 20000
		active := 0
		for i := 0; i < n; i++ {
			if s.FaultActive() {
				active++
			}
		}
		got := float64(active) / float64(n)
		if math.Abs(got-p) > 0.02 {
			t.Errorf("p=%g: empirical activation rate %g", p, got)
		}
	}
}

func TestBurstModePersists(t *testing.T) {
	// High persistence must produce far longer runs of consecutive active
	// items than the independent model at the same marginal rate.
	runLen := func(prof Profile) float64 {
		s := prof.NewSession(7)
		runs, current, total := 0, 0, 0
		for i := 0; i < 50000; i++ {
			if s.FaultActive() {
				current++
			} else if current > 0 {
				runs++
				total += current
				current = 0
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(total) / float64(runs)
	}
	indep := runLen(Profile{Intermittence: Intermittence{P: 0.5}})
	burst := runLen(Profile{Intermittence: Intermittence{P: 0.1, Burst: true, Persist: 0.95}})
	if burst < 4*indep {
		t.Errorf("burst mean run %g not much longer than independent %g", burst, indep)
	}
}

func TestSessionDeterminism(t *testing.T) {
	prof := Profile{
		Intermittence: Intermittence{P: 0.4, Burst: true, Persist: 0.8},
		Readout:       Readout{JitterP: 0.3, JitterMag: 2, DropP: 0.1},
	}
	replay := func() ([]bool, [][]int, []bool) {
		s := prof.NewSession(99)
		var acts []bool
		var obs [][]int
		var drops []bool
		for i := 0; i < 200; i++ {
			acts = append(acts, s.FaultActive())
			r, err := s.Observe(snn.Result{SpikeCounts: []int{3, 0, 7}})
			drops = append(drops, err != nil)
			if err == nil {
				obs = append(obs, r.SpikeCounts)
			}
		}
		return acts, obs, drops
	}
	a1, o1, d1 := replay()
	a2, o2, d2 := replay()
	for i := range a1 {
		if a1[i] != a2[i] || d1[i] != d2[i] {
			t.Fatalf("activation/drop sequence diverged at %d", i)
		}
	}
	if len(o1) != len(o2) {
		t.Fatalf("observation counts differ")
	}
	for i := range o1 {
		for j := range o1[i] {
			if o1[i][j] != o2[i][j] {
				t.Fatalf("jitter diverged at read %d output %d", i, j)
			}
		}
	}
}

func TestObservePerfectChannelIsIdentity(t *testing.T) {
	s := Reliable().NewSession(5)
	in := snn.Result{SpikeCounts: []int{1, 2, 3}}
	out, err := s.Observe(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Errorf("perfect readout altered result: %v", out)
	}
}

func TestObserveDoesNotMutateAndClampsAtZero(t *testing.T) {
	s := Profile{Readout: Readout{JitterP: 1, JitterMag: 3}}.NewSession(3)
	in := snn.Result{SpikeCounts: []int{0, 0, 0, 0, 0, 0, 0, 0}}
	out, err := s.Observe(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range in.SpikeCounts {
		if c != 0 {
			t.Fatalf("input mutated at %d", i)
		}
	}
	for i, c := range out.SpikeCounts {
		if c < 0 {
			t.Errorf("negative spike count %d at output %d", c, i)
		}
	}
	if s.Jitters == 0 {
		t.Errorf("JitterP=1 jittered nothing")
	}
}

func TestDropRate(t *testing.T) {
	s := Profile{Readout: Readout{DropP: 0.25}}.NewSession(11)
	n, drops := 20000, 0
	for i := 0; i < n; i++ {
		if _, err := s.Observe(snn.Result{SpikeCounts: []int{1}}); err != nil {
			if err != ErrDropped {
				t.Fatalf("unexpected error %v", err)
			}
			drops++
		}
	}
	if got := float64(drops) / float64(n); math.Abs(got-0.25) > 0.02 {
		t.Errorf("empirical drop rate %g", got)
	}
	if s.Drops != drops {
		t.Errorf("Drops = %d, want %d", s.Drops, drops)
	}
}

func TestStrings(t *testing.T) {
	if Always().String() != "always active" {
		t.Errorf("Always string %q", Always().String())
	}
	if (Readout{}).String() != "perfect readout" {
		t.Errorf("perfect readout string")
	}
	for _, s := range []string{
		Intermittence{P: 0.5}.String(),
		Intermittence{P: 0.1, Burst: true, Persist: 0.9}.String(),
		Readout{JitterP: 0.2, DropP: 0.1}.String(),
		Reliable().String(),
	} {
		if s == "" {
			t.Errorf("empty rendering")
		}
	}
}
