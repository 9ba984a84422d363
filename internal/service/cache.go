package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// SuiteSpec is the canonical description of one generated artifact: the
// chip family, generation regime, fault model selection and quantization
// scheme. Two requests with the same spec address the same artifact — the
// cache key is a hash of the spec's canonical string, so the cache is
// content-addressed by *inputs* (the generator is deterministic, making
// equal inputs produce byte-identical suites; tests assert this).
type SuiteSpec struct {
	Arch           snn.Arch
	VariationAware bool
	// KindAll selects the merged all-models program; otherwise Kind is the
	// single fault model to generate for.
	KindAll bool
	Kind    fault.Kind
	// Scheme quantizes configurations the way the chip's weight memory
	// would (nil = ideal weights). It programs the ATE's test set and is
	// part of the key: quantized artifacts memoize different golden traces.
	Scheme *quant.Scheme
}

// KindName renders the fault-model selection canonically.
func (s SuiteSpec) KindName() string {
	if s.KindAll {
		return "all"
	}
	return s.Kind.String()
}

// Kinds expands the fault-model selection: every model for "all",
// otherwise the one selected.
func (s SuiteSpec) Kinds() []fault.Kind {
	if s.KindAll {
		return fault.Kinds()
	}
	return []fault.Kind{s.Kind}
}

// Model returns the paper-parameterized chip model of the spec.
func (s SuiteSpec) Model() *neurotest.Model { return neurotest.NewModel(s.Arch...) }

func (s SuiteSpec) regime() neurotest.Regime {
	if s.VariationAware {
		return neurotest.NegligibleVariation()
	}
	return neurotest.NoVariation()
}

// RegimeName renders the generation regime canonically.
func (s SuiteSpec) RegimeName() string { return s.regime().String() }

// QuantName renders the quantization scheme canonically ("none" when ideal).
func (s SuiteSpec) QuantName() string {
	if s.Scheme == nil {
		return "none"
	}
	return s.Scheme.String()
}

// Key returns the content address of the spec: a SHA-256 of its canonical
// string over (arch, LIF params, fault values, timesteps, regime, quant
// scheme, fault kind). Exact hex float formatting keeps the key stable
// across formatting round-trips.
func (s SuiteSpec) Key() string {
	m := s.Model()
	f := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "v1|arch=%v", m.Arch)
	fmt.Fprintf(&b, "|theta=%s|leak=%s|wmax=%s|reset=%d", f(m.Params.Theta), f(m.Params.Leak), f(m.Params.WMax), int(m.Params.Reset))
	fmt.Fprintf(&b, "|esf=%s|hsf=%s|omega=%s", f(m.Values.ESFTheta), f(m.Values.HSFTheta), f(m.Values.SWFOmega))
	fmt.Fprintf(&b, "|T=%d|regime=%s|quant=%s|kind=%s", m.Timesteps, s.RegimeName(), s.QuantName(), s.KindName())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// build generates the suite and encodes it with the binary codec — the
// expensive computation the cache and singleflight exist to amortize.
func (s SuiteSpec) build() (*Artifact, error) {
	model := s.Model()
	g, err := model.Generator(s.regime())
	if err != nil {
		return nil, err
	}
	var ts *pattern.TestSet
	if s.KindAll {
		_, ts = g.GenerateAll()
	} else {
		ts = g.Generate(s.Kind)
	}
	var buf bytes.Buffer
	if err := pattern.WriteBinary(&buf, ts); err != nil {
		return nil, err
	}
	return s.artifact(ts, buf.Bytes()), nil
}

// artifact wraps a decoded test set and its encoded bytes into the cache's
// unit of storage. Shared by the local build path and the peer-fetch path,
// so a suite fetched from a cluster peer is indistinguishable from a
// locally generated one — same summary, same lazily memoized ATE.
func (s SuiteSpec) artifact(ts *pattern.TestSet, encoded []byte) *Artifact {
	key := s.Key()
	return &Artifact{
		Key: key,
		Summary: SuiteSummary{
			Key:        key,
			Name:       ts.Name,
			Arch:       ts.Arch,
			Regime:     s.RegimeName(),
			Kind:       s.KindName(),
			Quant:      s.QuantName(),
			Configs:    ts.NumConfigs(),
			Patterns:   ts.NumPatterns(),
			TestLength: ts.TestLength(),
			SizeBytes:  len(encoded),
		},
		Bytes: encoded,
		ts:    ts,
		spec:  s,
	}
}

// SuiteSummary is the JSON shape describing a cached artifact.
type SuiteSummary struct {
	Key        string `json:"key"`
	Name       string `json:"name"`
	Arch       []int  `json:"arch"`
	Regime     string `json:"regime"`
	Kind       string `json:"kind"`
	Quant      string `json:"quant"`
	Configs    int    `json:"configs"`
	Patterns   int    `json:"patterns"`
	TestLength int    `json:"test_length"`
	SizeBytes  int    `json:"size_bytes"`
}

// Artifact is one cached computation: the binary-encoded suite plus the
// decoded test set and (lazily) the ATE whose golden traces campaigns
// reuse. Artifacts are immutable after construction except for the
// memoized ATE, which is built once under ateOnce.
type Artifact struct {
	Key     string
	Summary SuiteSummary
	Bytes   []byte

	ts   *pattern.TestSet
	spec SuiteSpec

	ateOnce sync.Once
	ate     *tester.ATE
	ateErr  error
	metrics *Metrics
}

// ATE returns the memoized test equipment for the artifact: golden
// responses are simulated once per artifact (the "memoized good traces" of
// the cache) and shared by every campaign job that hits the same key. The
// ATE in turn memoizes its faultsim.Golden (programmed networks, full
// good-chip traces and the shared downstream memo), so repeated coverage
// jobs on the same artifact — including tolerance-sweep clones — skip
// golden simulation entirely and start from a warm memo. The returned ATE
// has tolerance 0; campaigns needing a pass band take a
// CloneWithTolerance, never mutating the shared instance.
func (a *Artifact) ATE() (*tester.ATE, error) {
	a.ateOnce.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				a.ateErr = fmt.Errorf("service: building ATE for %s: %v", a.Key, p)
			}
		}()
		if a.metrics != nil {
			a.metrics.GoldenBuilds.Add(1)
		}
		a.ate = tester.New(a.ts, a.spec.Scheme)
	})
	return a.ate, a.ateErr
}

// Cache is the content-addressed artifact store: a byte-bounded LRU with
// singleflight deduplication, so N concurrent identical requests trigger
// exactly one generation and the hot working set of suites stays resident.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element // key → element whose Value is *Artifact
	lru      *list.List               // front = most recently used
	flight   map[string]*flight
	metrics  *Metrics

	// peerFetch, when set, is the second cache tier: on a local miss the
	// cache asks the cluster peers for the encoded suite by content key
	// before paying for a rebuild. It runs inside the singleflight, so a
	// stampede of identical requests costs at most one peer round-trip.
	peerFetch func(key string) ([]byte, error)
}

// flight is one in-progress computation that concurrent identical requests
// wait on instead of recomputing.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// Source says how a cache request was satisfied.
type Source int

const (
	// SourceMiss: this request ran the computation.
	SourceMiss Source = iota
	// SourceHit: served from a resident entry.
	SourceHit
	// SourceDedup: folded into another request's in-flight computation.
	SourceDedup
	// SourcePeer: fetched pre-built from a cluster peer's cache.
	SourcePeer
)

// String renders the source for response JSON.
func (s Source) String() string {
	switch s {
	case SourceHit:
		return "hit"
	case SourceDedup:
		return "dedup"
	case SourcePeer:
		return "peer"
	default:
		return "miss"
	}
}

// NewCache returns a cache bounded to roughly maxBytes of encoded suite
// bytes (decoded sets and golden traces ride along uncounted; the encoded
// size dominates and tracks both). maxBytes <= 0 means unbounded.
func NewCache(maxBytes int64, m *Metrics) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		flight:   make(map[string]*flight),
		metrics:  m,
	}
}

// Suite returns the artifact for spec, computing it at most once no matter
// how many identical requests race (singleflight): the first requester
// builds, the rest block on its flight and share the result.
func (c *Cache) Suite(spec SuiteSpec) (*Artifact, Source, error) {
	key := spec.Key()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.metrics.CacheHits.Add(1)
		return el.Value.(*Artifact), SourceHit, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.metrics.SingleflightDedups.Add(1)
		<-f.done
		return f.art, SourceDedup, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()
	c.metrics.CacheMisses.Add(1)

	src := SourceMiss
	art, err := c.fromPeer(spec, key)
	if art != nil {
		src = SourcePeer
		c.metrics.CachePeerHits.Add(1)
	} else {
		c.metrics.SuiteGenerations.Add(1)
		timer := obs.StartTimer()
		art, err = spec.build()
		timer.ObserveElapsed(c.metrics.ArtifactBuildSeconds)
	}
	if art != nil {
		art.metrics = c.metrics
	}

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.insertLocked(key, art)
	}
	c.mu.Unlock()
	f.art, f.err = art, err
	close(f.done)
	return art, src, err
}

// fromPeer is the second cache tier: fetch the encoded suite by content key
// from the worker ring and decode it, validating that the bytes really are
// a structurally sound test set for the requested spec before trusting
// them. Any failure (no peers, 404s, corrupt bytes, spec mismatch) returns
// (nil, nil): peer fetch is an optimization, never a correctness
// dependency, so the caller falls through to a local build.
func (c *Cache) fromPeer(spec SuiteSpec, key string) (*Artifact, error) {
	if c.peerFetch == nil {
		return nil, nil
	}
	raw, err := c.peerFetch(key)
	if err != nil {
		c.metrics.PeerFetchFailures.Add(1)
		return nil, nil
	}
	ts, err := pattern.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		c.metrics.PeerFetchFailures.Add(1)
		return nil, nil
	}
	if err := ts.Validate(); err != nil || !ts.Arch.Equal(spec.Arch) {
		c.metrics.PeerFetchFailures.Add(1)
		return nil, nil
	}
	return spec.artifact(ts, raw), nil
}

// SetPeerFetch installs the peer tier (nil disables). Call before serving.
func (c *Cache) SetPeerFetch(fetch func(key string) ([]byte, error)) {
	c.peerFetch = fetch
}

// Lookup returns the resident artifact with the given key, or nil. It
// counts as a use for LRU purposes. Evicted artifacts return nil — clients
// regenerate through Suite, which is why responses carry the full spec.
func (c *Cache) Lookup(key string) *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Artifact)
}

// Stats returns the resident entry count and encoded byte total.
func (c *Cache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

// insertLocked adds art and evicts least-recently-used entries while the
// budget is exceeded. The newest entry is never evicted, so an artifact
// larger than the whole budget still serves its requester (and is dropped
// on the next insert).
func (c *Cache) insertLocked(key string, art *Artifact) {
	if el, ok := c.entries[key]; ok {
		// A racing Lookup-free double insert cannot happen under
		// singleflight, but stay idempotent anyway.
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(art)
	c.entries[key] = el
	c.bytes += int64(len(art.Bytes))
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1 {
		oldest := c.lru.Back()
		victim := oldest.Value.(*Artifact)
		c.lru.Remove(oldest)
		delete(c.entries, victim.Key)
		c.bytes -= int64(len(victim.Bytes))
		c.metrics.CacheEvictions.Add(1)
	}
}
