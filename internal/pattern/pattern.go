// Package pattern defines the portable containers for generated tests: a
// TestSet groups test configurations (weight programmings) with the test
// patterns applied under each configuration, mirroring how an ATE drives a
// neuromorphic chip — program once, then apply patterns.
//
// The package also provides JSON and compact binary codecs so test sets can
// be stored and shipped to test equipment.
package pattern

import (
	"fmt"
	"math"
	"slices"

	"neurotest/internal/snn"
)

// Item is one (configuration, pattern) application. ConfigIndex refers into
// TestSet.Configs; the same configuration may serve many patterns.
type Item struct {
	// Label documents what the item targets, e.g. "HSF L3 grp2".
	Label string
	// ConfigIndex selects the test configuration to program.
	ConfigIndex int
	// Pattern is the primary-input vector to apply.
	Pattern snn.Pattern
	// Hold presents the pattern in every timestep of the window instead of
	// only at t = 0 (rate-coded application). The deterministic method
	// needs single-shot application; application-level functional tests
	// use held stimuli.
	Hold bool
	// Timesteps is the observation window length.
	Timesteps int
	// Repeat is how many times the pattern is applied on the tester (the
	// paper's "test repetition"). The deterministic method needs 1;
	// statistical baselines need hundreds to thousands.
	Repeat int
}

// Mode returns the simulator input mode encoded by Hold.
func (it Item) Mode() snn.InputMode {
	if it.Hold {
		return snn.ApplyHold
	}
	return snn.ApplyOnce
}

// TestSet is a complete test program for one chip family.
//
// Its configurations are read-only once built: configurations may share
// boundary arrays (core.Generator's do), and Merge and quant.Program share
// whole networks or arrays with their sources, so a caller that writes a
// configuration Clones it first.
type TestSet struct {
	// Name identifies the generator ("proposed", "atcpg", ...).
	Name string
	// Arch and Params describe the chip the set was generated for.
	Arch   snn.Arch
	Params snn.Params
	// Configs are the test configurations (only weights are significant).
	Configs []*snn.Network
	// Items are the pattern applications, in tester order.
	Items []Item
}

// NewTestSet returns an empty test set for the given chip family.
func NewTestSet(name string, arch snn.Arch, params snn.Params) *TestSet {
	return &TestSet{Name: name, Arch: arch.Clone(), Params: params}
}

// AddConfig appends a configuration and returns its index.
func (ts *TestSet) AddConfig(cfg *snn.Network) int {
	ts.Configs = append(ts.Configs, cfg)
	return len(ts.Configs) - 1
}

// AddItem appends an item. It panics when the item references a missing
// configuration or carries a mis-sized pattern — both are generator bugs.
func (ts *TestSet) AddItem(it Item) {
	if it.ConfigIndex < 0 || it.ConfigIndex >= len(ts.Configs) {
		//lint:ignore no-panic a dangling config index is a generator bug, documented on AddItem
		panic(fmt.Sprintf("pattern: item %q references config %d of %d", it.Label, it.ConfigIndex, len(ts.Configs)))
	}
	if len(it.Pattern) != ts.Arch.Inputs() {
		//lint:ignore no-panic a mis-sized pattern is a generator bug, documented on AddItem
		panic(fmt.Sprintf("pattern: item %q pattern width %d, want %d", it.Label, len(it.Pattern), ts.Arch.Inputs()))
	}
	if it.Repeat <= 0 {
		it.Repeat = 1
	}
	if it.Timesteps <= 0 {
		//lint:ignore no-panic a zero observation window is a generator bug, documented on AddItem
		panic(fmt.Sprintf("pattern: item %q has no observation window", it.Label))
	}
	ts.Items = append(ts.Items, it)
}

// NumConfigs returns the number of test configurations (paper row 3).
func (ts *TestSet) NumConfigs() int { return len(ts.Configs) }

// NumPatterns returns the number of test patterns (paper row 4).
func (ts *TestSet) NumPatterns() int { return len(ts.Items) }

// MaxRepeat returns the largest per-item repetition (paper row 5 reports a
// single representative repetition count per set).
func (ts *TestSet) MaxRepeat() int {
	m := 0
	for _, it := range ts.Items {
		if it.Repeat > m {
			m = it.Repeat
		}
	}
	return m
}

// TestLength returns Σ repeat over all items (paper row 6: number of test
// patterns × test repetition).
func (ts *TestSet) TestLength() int {
	n := 0
	for _, it := range ts.Items {
		n += it.Repeat
	}
	return n
}

// Merge appends the configurations and items of other into ts, remapping
// configuration indices. Both sets must target the same architecture.
func (ts *TestSet) Merge(other *TestSet) {
	if !ts.Arch.Equal(other.Arch) {
		//lint:ignore no-panic merging test sets across architectures is a programmer error, documented on Merge
		panic(fmt.Sprintf("pattern: cannot merge %v into %v", other.Arch, ts.Arch))
	}
	base := len(ts.Configs)
	ts.Configs = append(ts.Configs, other.Configs...)
	for _, it := range other.Items {
		it.ConfigIndex += base
		ts.Items = append(ts.Items, it)
	}
}

// InputGroups partitions the items by the layer-1 input they drive: two
// items share a group when their patterns are equal and their
// configurations' boundary-0 weights are bit-identical, so on any one chip
// they drive the same layer-1 input. Hold plays no part: a held item's
// input at each timestep is its pattern, as a single-shot item's is at
// t = 0. group[i] is item i's group; groups are numbered in order of their
// first item, first[g]. Each item is compared only with the first item of
// each earlier group.
func (ts *TestSet) InputGroups() (group, first []int) {
	group = make([]int, len(ts.Items))
	for i, it := range ts.Items {
		g := slices.IndexFunc(first, func(r int) bool { return ts.sameInput(ts.Items[r], it) })
		if g < 0 {
			g = len(first)
			first = append(first, i)
		}
		group[i] = g
	}
	return group, first
}

// sameInput reports whether items a and b drive the same layer-1 input:
// equal patterns over bit-identical boundary-0 weights. One array, shared
// by two configurations or by one, is equal without a comparison, and the
// comparison stops at the first word that differs.
func (ts *TestSet) sameInput(a, b Item) bool {
	if !slices.Equal(a.Pattern, b.Pattern) {
		return false
	}
	wa, wb := ts.Configs[a.ConfigIndex].W[0], ts.Configs[b.ConfigIndex].W[0]
	return &wa[0] == &wb[0] || slices.EqualFunc(wa, wb, func(u, v float64) bool {
		return math.Float64bits(u) == math.Float64bits(v)
	})
}

// InputSum returns what boundary 0 delivers to each layer-1 neuron while
// item it's pattern is applied: the configuration's rows of the pattern's
// input neurons, added in neuron order, the sum snn.Simulator.Run adds up
// itself.
func (ts *TestSet) InputSum(it Item) []float64 {
	n := ts.Arch[1]
	w := ts.Configs[it.ConfigIndex].W[0]
	sum := make([]float64, n)
	for i, on := range it.Pattern {
		if on {
			snn.AddInto(sum, w[i*n:(i+1)*n])
		}
	}
	return sum
}

// Validate checks internal consistency (indices, widths, weight shapes,
// windows). A test set freshly produced by a generator always validates;
// the check guards deserialized data, and faultsim.NewGolden runs it on
// every set it simulates.
func (ts *TestSet) Validate() error {
	if err := ts.Arch.Validate(); err != nil {
		return err
	}
	for ci, cfg := range ts.Configs {
		if cfg == nil {
			return fmt.Errorf("pattern: config %d is nil", ci)
		}
		if !cfg.Arch.Equal(ts.Arch) {
			return fmt.Errorf("pattern: config %d architecture %v, want %v", ci, cfg.Arch, ts.Arch)
		}
		if err := ts.Arch.CheckWeights(cfg.W); err != nil {
			return fmt.Errorf("pattern: config %d: %w", ci, err)
		}
	}
	for i, it := range ts.Items {
		if it.ConfigIndex < 0 || it.ConfigIndex >= len(ts.Configs) {
			return fmt.Errorf("pattern: item %d (%q) references config %d of %d", i, it.Label, it.ConfigIndex, len(ts.Configs))
		}
		if len(it.Pattern) != ts.Arch.Inputs() {
			return fmt.Errorf("pattern: item %d (%q) pattern width %d, want %d", i, it.Label, len(it.Pattern), ts.Arch.Inputs())
		}
		if it.Timesteps <= 0 || it.Timesteps > snn.MaxTimesteps {
			return fmt.Errorf("pattern: item %d (%q) timesteps %d out of range", i, it.Label, it.Timesteps)
		}
		if it.Repeat <= 0 {
			return fmt.Errorf("pattern: item %d (%q) repeat %d", i, it.Label, it.Repeat)
		}
	}
	return nil
}
