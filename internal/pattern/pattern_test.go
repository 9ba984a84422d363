package pattern

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

func sampleSet(t *testing.T, seed uint64) *TestSet {
	t.Helper()
	arch := snn.Arch{5, 4, 3}
	params := snn.DefaultParams()
	ts := NewTestSet("sample", arch, params)
	rng := stats.NewRNG(seed)
	for c := 0; c < 3; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		ci := ts.AddConfig(cfg)
		for p := 0; p < 2; p++ {
			pat := snn.NewPattern(5)
			for i := range pat {
				pat[i] = rng.Float64() < 0.5
			}
			ts.AddItem(Item{
				Label:       "item",
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   4,
				Repeat:      1 + int(rng.Uint64()%5),
			})
		}
	}
	return ts
}

func TestCountsAndLength(t *testing.T) {
	ts := sampleSet(t, 1)
	if ts.NumConfigs() != 3 || ts.NumPatterns() != 6 {
		t.Errorf("counts: %d configs, %d patterns", ts.NumConfigs(), ts.NumPatterns())
	}
	wantLen := 0
	maxRep := 0
	for _, it := range ts.Items {
		wantLen += it.Repeat
		if it.Repeat > maxRep {
			maxRep = it.Repeat
		}
	}
	if ts.TestLength() != wantLen {
		t.Errorf("TestLength = %d, want %d", ts.TestLength(), wantLen)
	}
	if ts.MaxRepeat() != maxRep {
		t.Errorf("MaxRepeat = %d, want %d", ts.MaxRepeat(), maxRep)
	}
}

func TestAddItemValidation(t *testing.T) {
	arch := snn.Arch{3, 2}
	ts := NewTestSet("t", arch, snn.DefaultParams())
	ci := ts.AddConfig(snn.New(arch, snn.DefaultParams()))
	assertPanics(t, "bad config index", func() {
		ts.AddItem(Item{ConfigIndex: 5, Pattern: snn.NewPattern(3), Timesteps: 1})
	})
	assertPanics(t, "bad pattern width", func() {
		ts.AddItem(Item{ConfigIndex: ci, Pattern: snn.NewPattern(7), Timesteps: 1})
	})
	assertPanics(t, "no window", func() {
		ts.AddItem(Item{ConfigIndex: ci, Pattern: snn.NewPattern(3)})
	})
	// Repeat defaults to 1.
	ts.AddItem(Item{ConfigIndex: ci, Pattern: snn.NewPattern(3), Timesteps: 2})
	if ts.Items[0].Repeat != 1 {
		t.Errorf("Repeat defaulted to %d", ts.Items[0].Repeat)
	}
}

func TestMerge(t *testing.T) {
	a := sampleSet(t, 1)
	b := sampleSet(t, 2)
	nc, ni := a.NumConfigs(), a.NumPatterns()
	a.Merge(b)
	if a.NumConfigs() != nc+b.NumConfigs() || a.NumPatterns() != ni+b.NumPatterns() {
		t.Errorf("merge counts wrong")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("merged set invalid: %v", err)
	}
	assertPanics(t, "arch mismatch", func() {
		other := NewTestSet("o", snn.Arch{2, 2}, snn.DefaultParams())
		a.Merge(other)
	})
}

func TestValidateCatchesCorruption(t *testing.T) {
	ts := sampleSet(t, 4)
	ts.Items[0].ConfigIndex = 42
	if ts.Validate() == nil {
		t.Errorf("bad config index passed validation")
	}
	ts = sampleSet(t, 4)
	ts.Items[0].Timesteps = 99
	if ts.Validate() == nil {
		t.Errorf("bad timesteps passed validation")
	}
	ts = sampleSet(t, 4)
	ts.Items[0].Repeat = 0
	if ts.Validate() == nil {
		t.Errorf("zero repeat passed validation")
	}
	ts = sampleSet(t, 4)
	ts.Configs[0] = snn.New(snn.Arch{9, 9}, snn.DefaultParams())
	if ts.Validate() == nil {
		t.Errorf("foreign architecture config passed validation")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ts := sampleSet(t, 5)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ts); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	assertSetsEqual(t, ts, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	ts := sampleSet(t, 6)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ts); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertSetsEqual(t, ts, got)
}

func TestBinaryIsSmallerThanJSON(t *testing.T) {
	ts := sampleSet(t, 7)
	var jb, bb bytes.Buffer
	if err := WriteJSON(&jb, ts); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, ts); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= jb.Len() {
		t.Errorf("binary (%d) not smaller than JSON (%d)", bb.Len(), jb.Len())
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	// A valid header for one configuration of an absurd 3,959,422,980-3-2
	// architecture and no weights: it must fail before the allocation.
	var huge bytes.Buffer
	for _, v := range []any{[4]byte{'N', 'T', 'S', '3'}, uint32(1), byte('q'), uint32(3),
		uint32(0xEC000004), uint32(3), uint32(2), 0.5, 0.9, 10.0, uint32(0), uint32(1)} {
		if err := binary.Write(&huge, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("NTS3"), // truncated after magic
		append([]byte("NTS3"), 0xFF, 0xFF, 0xFF, 0xFF), // absurd name length
		huge.Bytes(),
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"name":"x","arch":[3],"theta":0.5,"leak":0.9,"wmax":10}`,                                                                             // bad arch
		`{"name":"x","arch":[3,2],"theta":-1,"leak":0.9,"wmax":10}`,                                                                            // bad params
		`{"name":"x","arch":[3,2],"theta":0.5,"leak":0.9,"wmax":10,"configs":[[[1]]]}`,                                                         // short weights
		`{"name":"x","arch":[3,2],"theta":0.5,"leak":0.9,"wmax":10,"items":[{"label":"i","config":0,"pattern":[9],"timesteps":1,"repeat":1}]}`, // bad input index
		`{"name":"x","arch":[4000000000,3,2],"theta":0.5,"leak":0.9,"wmax":10,"configs":[[[],[]]]}`,                                            // absurd arch
		`{"name":"x","arch":[4294967296,4294967296],"theta":0.5,"leak":0.9,"wmax":10}`,                                                         // overflowing arch
	}
	for i, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed uint64, binary bool) bool {
		ts := sampleSetSeed(seed)
		var buf bytes.Buffer
		var got *TestSet
		var err error
		if binary {
			if err = WriteBinary(&buf, ts); err != nil || BinarySize(ts) != buf.Len() {
				return false
			}
			got, err = ReadBinary(&buf)
		} else {
			if err = WriteJSON(&buf, ts); err != nil {
				return false
			}
			got, err = ReadJSON(&buf)
		}
		if err != nil {
			return false
		}
		return setsEqual(ts, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBinarySizeMatchesEncoder pins BinarySize to the length WriteBinary
// writes, on sets with an empty name, empty labels, no configurations or
// items, and input widths that fill whole pattern bytes and that do not.
func TestBinarySizeMatchesEncoder(t *testing.T) {
	check := func(ts *TestSet) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ts); err != nil {
			t.Fatal(err)
		}
		if got := BinarySize(ts); got != buf.Len() {
			t.Errorf("%q on %v with %d configs and %d items: BinarySize %d, encoded %d bytes",
				ts.Name, ts.Arch, len(ts.Configs), len(ts.Items), got, buf.Len())
		}
	}
	params := snn.DefaultParams()
	for _, inputs := range []int{1, 8, 9, 576} {
		arch := snn.Arch{inputs, 3, 2}
		for _, name := range []string{"", "proposed"} {
			ts := NewTestSet(name, arch, params)
			check(ts)
			ci := ts.AddConfig(snn.New(arch, params))
			for _, label := range []string{"", "HSF L2 grp0"} {
				pat := snn.NewPattern(inputs)
				pat[inputs-1] = true
				ts.AddItem(Item{Label: label, ConfigIndex: ci, Pattern: pat, Timesteps: 2, Hold: label == ""})
				check(ts)
			}
		}
	}
}

func sampleSetSeed(seed uint64) *TestSet {
	arch := snn.Arch{4, 3, 2}
	params := snn.DefaultParams()
	ts := NewTestSet("q", arch, params)
	rng := stats.NewRNG(seed)
	cfg := snn.New(arch, params)
	for b := range cfg.W {
		for i := range cfg.W[b] {
			cfg.W[b][i] = -10 + 20*rng.Float64()
		}
	}
	ci := ts.AddConfig(cfg)
	pat := snn.NewPattern(4)
	for i := range pat {
		pat[i] = rng.Float64() < 0.5
	}
	ts.AddItem(Item{Label: "x", ConfigIndex: ci, Pattern: pat, Timesteps: 3, Repeat: 2})
	return ts
}

func setsEqual(a, b *TestSet) bool {
	if a.Name != b.Name || !a.Arch.Equal(b.Arch) || a.Params != b.Params {
		return false
	}
	if len(a.Configs) != len(b.Configs) || len(a.Items) != len(b.Items) {
		return false
	}
	for ci := range a.Configs {
		for bd := range a.Configs[ci].W {
			for i := range a.Configs[ci].W[bd] {
				if a.Configs[ci].W[bd][i] != b.Configs[ci].W[bd][i] {
					return false
				}
			}
		}
	}
	for i := range a.Items {
		ai, bi := a.Items[i], b.Items[i]
		if ai.Label != bi.Label || ai.ConfigIndex != bi.ConfigIndex ||
			ai.Timesteps != bi.Timesteps || ai.Repeat != bi.Repeat {
			return false
		}
		for j := range ai.Pattern {
			if ai.Pattern[j] != bi.Pattern[j] {
				return false
			}
		}
	}
	return true
}

func assertSetsEqual(t *testing.T, a, b *TestSet) {
	t.Helper()
	if !setsEqual(a, b) {
		t.Errorf("round trip mismatch")
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestHoldRoundTrip(t *testing.T) {
	ts := sampleSet(t, 9)
	ts.Items[0].Hold = true
	ts.Items[2].Hold = true
	var jb, bb bytes.Buffer
	if err := WriteJSON(&jb, ts); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, ts); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(&jb)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts.Items {
		if fromJSON.Items[i].Hold != ts.Items[i].Hold {
			t.Errorf("JSON item %d hold = %v", i, fromJSON.Items[i].Hold)
		}
		if fromBin.Items[i].Hold != ts.Items[i].Hold {
			t.Errorf("binary item %d hold = %v", i, fromBin.Items[i].Hold)
		}
	}
	// Mode mapping.
	if ts.Items[0].Mode() != snn.ApplyHold || ts.Items[1].Mode() != snn.ApplyOnce {
		t.Errorf("Mode mapping wrong")
	}
}
