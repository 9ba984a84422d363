package service

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
)

func specFor(kind fault.Kind) SuiteSpec {
	return SuiteSpec{Arch: snn.Arch{8, 6, 4}, Kind: kind}
}

func TestSuiteKeyStability(t *testing.T) {
	a := specFor(fault.NASF)
	if a.Key() != a.Key() {
		t.Fatal("key not deterministic")
	}
	variants := []SuiteSpec{
		specFor(fault.SWF),
		{Arch: snn.Arch{8, 6, 4}, KindAll: true},
		{Arch: snn.Arch{8, 7, 4}, Kind: fault.NASF},
		{Arch: snn.Arch{8, 6, 4}, Kind: fault.NASF, VariationAware: true},
	}
	if s, err := quant.NewScheme(4, quant.PerChannel); err == nil {
		variants = append(variants, SuiteSpec{Arch: snn.Arch{8, 6, 4}, Kind: fault.NASF, Scheme: &s})
	}
	seen := map[string]bool{a.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Errorf("spec %+v collides with an earlier key", v)
		}
		seen[v.Key()] = true
	}
}

func TestCacheDeterministicBytes(t *testing.T) {
	// Equal specs must produce byte-identical artifacts even across
	// independent caches — the property that makes content addressing sound.
	spec := specFor(fault.NASF)
	a1, src1, err := NewCache(0, &Metrics{}).Suite(spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := NewCache(0, &Metrics{}).Suite(spec)
	if err != nil {
		t.Fatal(err)
	}
	if src1 != SourceMiss {
		t.Errorf("first build source = %v, want miss", src1)
	}
	if a1.Key != a2.Key {
		t.Errorf("keys differ: %s vs %s", a1.Key, a2.Key)
	}
	var b1, b2 bytes.Buffer
	if err := pattern.WriteBinary(&b1, a1.ts); err != nil {
		t.Fatal(err)
	}
	if err := pattern.WriteBinary(&b2, a2.ts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("independently built artifacts are not byte-identical")
	}
	if b1.Len() != a1.Summary.SizeBytes {
		t.Errorf("image is %d bytes, summary says %d", b1.Len(), a1.Summary.SizeBytes)
	}
}

// TestCacheMissEncodesNothing: a miss on the paper's merged 4-layer program
// (a 16.2 MB image) generates and keeps the test set, and allocates less
// than the image a download encodes, so the miss builds no encoded copy.
func TestCacheMissEncodesNothing(t *testing.T) {
	spec := SuiteSpec{Arch: snn.Arch{576, 256, 32, 10}, KindAll: true}
	c := NewCache(0, &Metrics{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	art, src, err := c.Suite(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceMiss {
		t.Fatalf("source = %v, want miss", src)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(art.Summary.SizeBytes) {
		t.Errorf("miss allocated %d bytes, not less than its %d-byte image", alloc, art.Summary.SizeBytes)
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	m := &Metrics{}
	c := NewCache(0, m)
	spec := specFor(fault.NASF)
	first, _, err := c.Suite(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, src, err := c.Suite(spec)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceHit {
		t.Errorf("repeat source = %v, want hit", src)
	}
	if again != first {
		t.Error("repeat request did not return the resident artifact")
	}
	if gen := m.CacheMisses.Load(); gen != 1 {
		t.Errorf("cache_misses = %d, want 1", gen)
	}
}

func TestCacheSingleflight(t *testing.T) {
	// N racing identical requests must run exactly one generation; everyone
	// else is a hit or folded into the in-flight build (dedup).
	const n = 16
	m := &Metrics{}
	c := NewCache(0, m)
	spec := specFor(fault.SASF)

	arts := make([]*Artifact, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := c.Suite(spec)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()

	if gen := m.CacheMisses.Load(); gen != 1 {
		t.Fatalf("cache_misses = %d, want exactly 1 for %d racing requests", gen, n)
	}
	if folded := m.CacheHits.Load() + m.SingleflightDedups.Load(); folded != n-1 {
		t.Errorf("hits+dedups = %d, want %d", folded, n-1)
	}
	for i := 1; i < n; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("request %d got a different artifact instance", i)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := &Metrics{}
	nasf, _, err := NewCache(0, &Metrics{}).Suite(specFor(fault.NASF))
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits one artifact of this size but not two.
	c := NewCache(int64(nasf.Summary.SizeBytes)+16, m)
	if _, _, err := c.Suite(specFor(fault.NASF)); err != nil {
		t.Fatal(err)
	}
	hsf, _, err := c.Suite(specFor(fault.HSF))
	if err != nil {
		t.Fatal(err)
	}

	if got := m.CacheEvictions.Load(); got < 1 {
		t.Fatalf("cache_evictions = %d, want >= 1", got)
	}
	if c.Lookup(specFor(fault.NASF).Key()) != nil {
		t.Error("LRU victim still resident")
	}
	if c.Lookup(hsf.Key) != hsf {
		t.Error("newest entry was evicted")
	}
	entries, size := c.Stats()
	if entries != 1 || size != int64(hsf.Summary.SizeBytes) {
		t.Errorf("stats = (%d entries, %d bytes), want (1, %d)", entries, size, hsf.Summary.SizeBytes)
	}
}

func TestArtifactATEMemoized(t *testing.T) {
	m := &Metrics{}
	c := NewCache(0, m)
	art, _, err := c.Suite(specFor(fault.NASF))
	if err != nil {
		t.Fatal(err)
	}
	if a1, a2 := art.ATE(), art.ATE(); a1 != a2 {
		t.Error("ATE not memoized: two different instances")
	}
	if got := m.GoldenBuilds.Load(); got != 1 {
		t.Errorf("golden_builds = %d, want 1", got)
	}
}
