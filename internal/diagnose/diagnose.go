// Package diagnose adds classic ATE fault diagnosis on top of the
// generated test sets: a fault dictionary maps each fault to the pass/fail
// signature it produces across the test program, and a failing chip's
// observed signature is looked up to return the candidate faults.
//
// This extends the paper (which stops at detection) with the natural next
// step of a production test flow — locating the defect — and doubles as a
// measure of how *diagnosable* the O(L) test sets are: every extra
// signature class means a finer localisation of the failing neuron or
// synapse.
package diagnose

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
)

// Signature is a pass/fail bitmask over the items of a test set: bit i is
// set when item i detects the fault (the chip FAILS item i).
type Signature struct {
	words []uint64
	n     int
}

// NewSignature returns an all-pass signature for n items.
func NewSignature(n int) Signature {
	return Signature{words: make([]uint64, (n+63)/64), n: n}
}

// SetFail marks item i as failing.
func (s *Signature) SetFail(i int) {
	if i < 0 || i >= s.n {
		//lint:ignore no-panic mirrors built-in slice indexing semantics for an out-of-range item
		panic(fmt.Sprintf("diagnose: item %d out of %d", i, s.n))
	}
	s.words[i/64] |= 1 << uint(i%64)
}

// Fails reports whether item i fails.
func (s Signature) Fails(i int) bool {
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// AnyFail reports whether the signature contains any failing item.
func (s Signature) AnyFail() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// CountFails returns the number of failing items.
func (s Signature) CountFails() int {
	c := 0
	for i := 0; i < s.n; i++ {
		if s.Fails(i) {
			c++
		}
	}
	return c
}

// Key returns a map key uniquely identifying the signature.
func (s Signature) Key() string {
	var sb strings.Builder
	for _, w := range s.words {
		fmt.Fprintf(&sb, "%016x", w)
	}
	return sb.String()
}

// SubsetOf reports whether every failing item of s also fails in t —
// the consistency test multi-fault diagnosis uses: a single fault is a
// plausible member of an observed defect cluster when its own signature is
// contained in the cluster's. Signatures of different lengths are never
// subsets of one another.
func (s Signature) SubsetOf(t Signature) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// String renders the signature as a 0/1 string, item 0 first.
func (s Signature) String() string {
	var sb strings.Builder
	for i := 0; i < s.n; i++ {
		if s.Fails(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Dictionary is a pass/fail fault dictionary for one test set.
type Dictionary struct {
	ts      *pattern.TestSet
	entries map[string][]fault.Fault
	// sigs maps each class key back to its signature, so subset queries
	// (multi-fault candidate search) need not re-parse keys.
	sigs map[string]Signature
	// detected counts faults with at least one failing item (the rest are
	// undetectable by this test set and share the all-pass signature).
	detected int
	total    int
}

// Build fault-simulates every fault of universe against every item of ts
// as programmed under scheme (nil for ideal weights; it must match how
// chips under diagnosis are programmed) and returns the dictionary.
//
// Unlike coverage measurement, dictionary construction cannot early-exit:
// the full per-item signature is what distinguishes faults.
func Build(ts *pattern.TestSet, values fault.Values, scheme *quant.Scheme, universe []fault.Fault) *Dictionary {
	//lint:ignore unchecked-error context.TODO() never cancels, and cancellation is the only error DetectsMatrix returns
	rows, _ := faultsim.NewGolden(quant.Program(ts, scheme)).NewEvaluator(values).DetectsMatrix(context.TODO(), universe)
	d := &Dictionary{
		ts:      ts,
		entries: make(map[string][]fault.Fault),
		sigs:    make(map[string]Signature),
		total:   len(universe),
	}
	for fi, f := range universe {
		// A matrix row is laid out exactly like a signature's words.
		sig := Signature{words: rows[fi], n: len(ts.Items)}
		if sig.AnyFail() {
			d.detected++
		}
		key := sig.Key()
		d.entries[key] = append(d.entries[key], f)
		d.sigs[key] = sig
	}
	// Classes inherit the caller's universe order, which SampleFaults and
	// ad-hoc callers do not guarantee; candidate lists are part of repair
	// plans, so every class is canonicalised to SortFaults order here, once.
	//lint:ignore interprocedural-determinism each class is sorted in place; the visit order cannot change the result
	for _, fs := range d.entries {
		SortFaults(fs)
	}
	return d
}

// Classes returns the number of distinct signatures observed (including
// the all-pass class when some faults are undetectable).
func (d *Dictionary) Classes() int { return len(d.entries) }

// Detected returns how many dictionary faults fail at least one item.
func (d *Dictionary) Detected() int { return d.detected }

// Total returns the number of faults in the dictionary.
func (d *Dictionary) Total() int { return d.total }

// Lookup returns the candidate faults for an observed signature, or nil
// when the signature matches no dictionary entry (an unmodelled defect).
// The returned slice is in SortFaults order (guaranteed since Build
// canonicalises every class) and must not be mutated by the caller.
func (d *Dictionary) Lookup(sig Signature) []fault.Fault {
	return d.entries[sig.Key()]
}

// Candidates returns the faults consistent with an observed signature under
// the classic multiple-fault heuristic: every dictionary fault whose own
// failing signature is a non-empty subset of the observation. An exact
// single-fault match is a special case (its whole class is returned); a
// clustered defect — several faults on one die, whose merged signature
// matches no single-fault entry — returns the union of the plausible
// members. The result is freshly allocated, in SortFaults order; it is
// empty when no modelled fault explains any failing item.
func (d *Dictionary) Candidates(sig Signature) []fault.Fault {
	var out []fault.Fault
	//lint:ignore interprocedural-determinism keyed filter; membership depends only on each class signature, and the result is sorted below
	for key, fs := range d.entries {
		cs := d.sigs[key]
		if !cs.AnyFail() || !cs.SubsetOf(sig) {
			continue
		}
		out = append(out, fs...)
	}
	SortFaults(out)
	return out
}

// Resolution summarises how sharply the dictionary localises faults.
type Resolution struct {
	// Classes is the number of distinct failing signatures.
	Classes int
	// MaxClassSize is the largest equivalence class (failing signatures
	// only): the worst-case candidate count a diagnosis returns.
	MaxClassSize int
	// MeanClassSize is the average candidate count over detected faults.
	MeanClassSize float64
	// UniquelyDiagnosed counts faults whose signature is theirs alone.
	UniquelyDiagnosed int
}

// Resolution computes diagnostic-resolution statistics over the failing
// signature classes.
func (d *Dictionary) Resolution() Resolution {
	var r Resolution
	sum := 0
	for key, faults := range d.entries {
		// Skip the all-pass class: those faults are undetected, not
		// diagnosed.
		if key == NewSignature(signatureLen(d)).Key() {
			continue
		}
		r.Classes++
		if len(faults) > r.MaxClassSize {
			r.MaxClassSize = len(faults)
		}
		if len(faults) == 1 {
			r.UniquelyDiagnosed++
		}
		sum += len(faults) * len(faults) // each fault sees its own class size
	}
	if d.detected > 0 {
		r.MeanClassSize = float64(sum) / float64(d.detected)
	}
	return r
}

func signatureLen(d *Dictionary) int { return len(d.ts.Items) }

// String renders a dictionary summary.
func (d *Dictionary) String() string {
	r := d.Resolution()
	return fmt.Sprintf("dictionary: %d faults, %d detected, %d failing classes, %d uniquely diagnosed, mean class %.2f, max class %d",
		d.total, d.detected, r.Classes, r.UniquelyDiagnosed, r.MeanClassSize, r.MaxClassSize)
}

// SortFaults orders a candidate list deterministically (for stable output).
func SortFaults(fs []fault.Fault) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind.IsNeuronFault() {
			if a.Neuron.Layer != b.Neuron.Layer {
				return a.Neuron.Layer < b.Neuron.Layer
			}
			return a.Neuron.Index < b.Neuron.Index
		}
		if a.Synapse.Boundary != b.Synapse.Boundary {
			return a.Synapse.Boundary < b.Synapse.Boundary
		}
		if a.Synapse.Pre != b.Synapse.Pre {
			return a.Synapse.Pre < b.Synapse.Pre
		}
		return a.Synapse.Post < b.Synapse.Post
	})
}
