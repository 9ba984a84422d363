// Package neurotest is an open reproduction of "Low-Complexity Algorithmic
// Test Generation for Neuromorphic Chips" (Huang, Hsiao, Liu, Li — DAC
// 2024): deterministic generation of test configurations and test patterns
// for configurable SNN chips without scan DfT, achieving 100 % coverage of
// five behavioural fault models with O(L) tests per model.
//
// The package is a thin façade over the implementation packages. The main
// entry points are:
//
//	m := neurotest.NewModel(576, 256, 32, 10)      // the paper's 4-layer chip
//	suite, _ := m.GenerateSuite(neurotest.NoVariation())
//	cov, _ := m.MeasureCoverage(neurotest.SWF, suite.PerKind[neurotest.SWF], nil)
//
// See the examples directory for complete programs and cmd/experiments for
// the harness that regenerates every table and figure of the paper.
package neurotest

import (
	"context"
	"fmt"

	"neurotest/internal/compact"
	"neurotest/internal/core"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while letting users name every type they receive.
type (
	// Arch is a layer-width vector, input layer first.
	Arch = snn.Arch
	// Params holds the shared LIF parameters (θ, leak, ωmax).
	Params = snn.Params
	// Network is a fully connected SNN / test configuration.
	Network = snn.Network
	// Pattern is a binary primary-input vector.
	Pattern = snn.Pattern
	// Result is a chip output: spike counts per output neuron.
	Result = snn.Result
	// NeuronID addresses a neuron as (layer, index), 0-based.
	NeuronID = snn.NeuronID
	// Modifiers injects behavioural deviations (defects) into simulations.
	Modifiers = snn.Modifiers
	// SynapseID addresses a synapse as (boundary, pre, post), 0-based.
	SynapseID = snn.SynapseID
	// Fault is one fault instance.
	Fault = fault.Fault
	// FaultKind is one of the five behavioural fault models.
	FaultKind = fault.Kind
	// FaultValues holds θ̂ and ω̂.
	FaultValues = fault.Values
	// TestSet is a complete test program.
	TestSet = pattern.TestSet
	// TestItem is one (configuration, pattern) application.
	TestItem = pattern.Item
	// Regime selects the no-variation or variation-aware settings.
	Regime = core.Regime
	// Generator emits test sets per fault model.
	Generator = core.Generator
	// ATE applies test programs to chips and measures quality metrics.
	ATE = tester.ATE
	// CoverageResult summarises a coverage campaign.
	CoverageResult = tester.CoverageResult
	// QuantScheme is a data-driven weight quantization scheme.
	QuantScheme = quant.Scheme
	// Granularity selects how many weights share one quantization scale.
	Granularity = quant.Granularity
	// VariationModel is an i.i.d. Gaussian weight-variation regime.
	VariationModel = variation.Model
	// RNG is the deterministic random source used throughout.
	RNG = stats.RNG
)

// Fault model constants.
const (
	NASF = fault.NASF
	ESF  = fault.ESF
	HSF  = fault.HSF
	SWF  = fault.SWF
	SASF = fault.SASF
)

// Quantization granularities.
const (
	PerNetwork  = quant.PerNetwork
	PerBoundary = quant.PerBoundary
	PerChannel  = quant.PerChannel
)

// NoVariation returns the regime using the "No" columns of Tables 1/2.
func NoVariation() Regime { return core.NoVariation() }

// NegligibleVariation returns the variation-aware regime with unbounded ν.
func NegligibleVariation() Regime { return core.NegligibleVariation() }

// RegimeForSigma returns the variation-aware regime with ν computed from σ.
func RegimeForSigma(omegaMax, sigma, c float64) Regime {
	return core.ForSigma(omegaMax, sigma, c)
}

// NewRNG returns a deterministic random source.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewQuantScheme builds a quantization scheme. Bit widths outside [2, 16]
// are configuration errors.
func NewQuantScheme(bits int, gran quant.Granularity) (QuantScheme, error) {
	return quant.NewScheme(bits, gran)
}

// VariationOfTheta builds a variation model from the paper's "% of θ"
// convention.
func VariationOfTheta(fraction, theta float64) VariationModel {
	return variation.OfTheta(fraction, theta)
}

// Model bundles a chip family: architecture, LIF parameters and the fault
// strengths the tests aim at.
type Model struct {
	Arch      Arch
	Params    Params
	Values    FaultValues
	Timesteps int
}

// NewModel builds a model with the paper's evaluation parameters
// (Section 5.1): θ = 0.5, ωmax = 20θ, ESF θ̂ = 0.1θ, HSF θ̂ = 1.9θ,
// ω̂ = 2θ, observation window of 4 timesteps.
func NewModel(layerWidths ...int) *Model {
	params := snn.DefaultParams()
	return &Model{
		Arch:      Arch(layerWidths),
		Params:    params,
		Values:    fault.PaperValues(params.Theta),
		Timesteps: 4,
	}
}

// FourLayerModel returns the paper's 576-256-32-10 evaluation model.
func FourLayerModel() *Model { return NewModel(576, 256, 32, 10) }

// FiveLayerModel returns the paper's 576-256-64-32-10 evaluation model.
func FiveLayerModel() *Model { return NewModel(576, 256, 64, 32, 10) }

// Generator returns a test generator for the model under a regime.
func (m *Model) Generator(regime Regime) (*Generator, error) {
	return core.NewGenerator(core.Options{
		Arch:      m.Arch,
		Params:    m.Params,
		Values:    m.Values,
		Regime:    regime,
		Timesteps: m.Timesteps,
	})
}

// Suite groups the generated test sets of all five fault models.
type Suite struct {
	PerKind map[FaultKind]*TestSet
	// Merged is the full test program in tester order, with the shared
	// NASF/SASF configuration applied once.
	Merged *TestSet
}

// TotalTestLength sums per-kind test lengths, the number the paper's
// "73,826x shorter" claim compares.
func (s *Suite) TotalTestLength() int {
	// Walk the models in presentation order rather than ranging over the
	// map: the sum is order-independent, but the determinism analyzer bans
	// map iteration wholesale on artifact-producing paths, and the fixed
	// order costs nothing.
	n := 0
	for _, k := range fault.Kinds() {
		if ts, ok := s.PerKind[k]; ok {
			n += ts.TestLength()
		}
	}
	return n
}

// GenerateSuite generates the test sets of all five fault models.
func (m *Model) GenerateSuite(regime Regime) (*Suite, error) {
	g, err := m.Generator(regime)
	if err != nil {
		return nil, err
	}
	perKind, merged := g.GenerateAll()
	return &Suite{PerKind: perKind, Merged: merged}, nil
}

// Universe enumerates the fault universe of one model for the chip family.
func (m *Model) Universe(kind FaultKind) []Fault {
	return fault.Universe(m.Arch, kind)
}

// NewATE builds test equipment for a test set, optionally quantizing every
// configuration the way the chip's weight memory would.
func (m *Model) NewATE(ts *TestSet, scheme *QuantScheme) *ATE {
	return tester.New(ts, scheme)
}

// MeasureCoverage fault-simulates ts against the full universe of kind and
// returns the coverage, optionally under quantization.
func (m *Model) MeasureCoverage(kind FaultKind, ts *TestSet, scheme *QuantScheme) (CoverageResult, error) {
	return m.MeasureCoverageContext(context.Background(), kind, ts, scheme)
}

// MeasureCoverageContext is MeasureCoverage with cooperative cancellation
// and trace propagation: when ctx carries an obs span (see internal/obs),
// the campaign's fault-simulation phase is recorded under it.
func (m *Model) MeasureCoverageContext(ctx context.Context, kind FaultKind, ts *TestSet, scheme *QuantScheme) (CoverageResult, error) {
	if ts == nil {
		return CoverageResult{}, fmt.Errorf("neurotest: nil test set")
	}
	ate := m.NewATE(ts, scheme)
	return ate.MeasureCoverageContext(ctx, m.Universe(kind), m.Values)
}

// Unreliable-chip session types re-exported from internal/unreliable and
// internal/tester: reliability models for intermittent faults and noisy
// readout, plus the ATE retest/quarantine policy layered on top.
type (
	// Intermittence gates a defect's activity per applied test item.
	Intermittence = unreliable.Intermittence
	// Readout corrupts observed spike counts (jitter, dropped reads).
	Readout = unreliable.Readout
	// ReliabilityProfile composes the reliability models of one chip.
	ReliabilityProfile = unreliable.Profile
	// RetestPolicy governs retest-on-fail budgets and voting.
	RetestPolicy = tester.RetestPolicy
	// SessionReport is the three-way verdict and accounting of one session.
	SessionReport = tester.SessionReport
	// SessionStats aggregates a population of chip sessions.
	SessionStats = tester.SessionStats
	// Outcome is the session verdict: Pass, Fail or Quarantine.
	Outcome = tester.Outcome
)

// Session outcome constants.
const (
	OutcomePass       = tester.Pass
	OutcomeFail       = tester.Fail
	OutcomeQuarantine = tester.Quarantine
)

// ReliableChip returns the profile of the paper's deterministic evaluation:
// the defect is permanently active and the readout is perfect. Sessions
// under it with a zero RetestPolicy reproduce plain RunChip verdicts.
func ReliableChip() ReliabilityProfile { return unreliable.Reliable() }

// Diagnosis types re-exported from internal/diagnose.
type (
	// FaultDictionary maps pass/fail signatures to candidate faults.
	FaultDictionary = diagnose.Dictionary
	// FailSignature is a per-item pass/fail bitmask observed on a tester.
	FailSignature = diagnose.Signature
	// CompactionStats reports what test-set compaction achieved.
	CompactionStats = compact.Stats
)

// BuildDictionary fault-simulates every fault in faults against every item
// of ate's test program, as ate programs it, and returns a diagnosis
// dictionary (see internal/diagnose). The dictionary reads the Golden ate's
// campaigns read; diagnose chips on ate with DiagnoseChip. A fault that is
// not a fault of the chip is an error, reported before anything is
// simulated.
func (m *Model) BuildDictionary(ate *ATE, faults []Fault) (*FaultDictionary, error) {
	return diagnose.BuildOn(context.Background(), ate, m.Values, faults)
}

// DiagnoseChip runs ate's full test program against a (possibly defective)
// chip and returns its observed pass/fail signature for dictionary lookup.
func (m *Model) DiagnoseChip(ate *ATE, defect *snn.Modifiers) FailSignature {
	return diagnose.ObserveChip(ate, defect)
}

// CompactTestSet removes the items of ate's test program whose detected
// faults are all covered by other items, preserving coverage of faults
// exactly as ate programs the chip (see internal/compact). A fault that is
// not a fault of the chip is an error, reported before anything is
// simulated.
func (m *Model) CompactTestSet(ate *ATE, faults []Fault) (*TestSet, CompactionStats, error) {
	return compact.CompactOn(context.Background(), ate, m.Values, faults)
}
