package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument. A
// family (one metric name) may carry many series distinguished by their
// label signatures; exposition renders series in sorted signature order so
// the output is reproducible.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is one series' render hook.
type metric interface {
	// writeText appends the series' exposition lines. name is the family
	// name, labels the series' rendered signature ("" when unlabeled).
	writeText(b *strings.Builder, name, labels string)
}

// family groups every series sharing a metric name.
type family struct {
	name, help, typ string
	series          map[string]metric // label signature → instrument
}

// Registry owns a set of instrument families and renders them in the
// Prometheus text format. Get-or-create constructors make registration
// idempotent: asking twice for the same (name, labels) returns the same
// instrument, so package-level wiring and repeated server construction in
// tests cannot double-register.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// instrument resolves (name, typ, labels) to its series, creating family
// and series on first use via mk.
func (r *Registry) instrument(name, help, typ string, labels []Label, mk func() metric) metric {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = fam
	}
	if fam.typ != typ {
		// A name registered under two instrument types is a wiring bug no
		// request input can trigger; any test touching the path trips it.
		//lint:ignore no-panic registry type conflicts are programmer errors, caught by the first scrape or test of the path
		panic(fmt.Sprintf("obs: %s already registered as %s, requested as %s", name, fam.typ, typ))
	}
	if m, ok := fam.series[sig]; ok {
		return m
	}
	m := mk()
	fam.series[sig] = m
	return m
}

// Counter registers (or returns) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.instrument(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.instrument(name, help, "gauge", labels, func() metric { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters (service.Metrics).
// The first registration of a (name, labels) series wins.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, "counter", labels, func() metric { return funcMetric(fn) })
}

// GaugeFunc registers a gauge read from fn at scrape time (queue depth,
// cache residency, runtime stats). The first registration wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.instrument(name, help, "gauge", labels, func() metric { return funcMetric(fn) })
}

// Histogram registers (or returns) a fixed-bucket histogram. buckets are
// upper bounds in ascending order; nil selects DefBuckets. A +Inf bucket
// is always implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.instrument(name, help, "histogram", labels, func() metric { return newHistogram(buckets) }).(*Histogram)
}

// WriteText renders one or more registries in the Prometheus text
// exposition format (version 0.0.4) as one exposition: families sorted by
// name, series sorted by label signature, one # HELP/# TYPE pair per
// family; output is byte-stable for fixed instrument values. Families merge
// by name (first registry's help/type wins on a shared name, series merge).
// The server uses it to serve its own registry and the library Default in
// one scrape.
func WriteText(w io.Writer, regs ...*Registry) error {
	type seriesLine struct {
		sig string
		m   metric
	}
	type famView struct {
		name, help, typ string
		series          []seriesLine
	}
	merged := make(map[string]*famView)
	var names []string
	for _, r := range regs {
		r.mu.Lock()
		for name, fam := range r.families { //lint:ignore determinism family names are sorted before any order-dependent use
			fv := merged[name]
			if fv == nil {
				fv = &famView{name: name, help: fam.help, typ: fam.typ}
				merged[name] = fv
				names = append(names, name)
			}
			for sig, m := range fam.series { //lint:ignore determinism series are sorted before any order-dependent use
				fv.series = append(fv.series, seriesLine{sig: sig, m: m})
			}
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fv := merged[name]
		sort.Slice(fv.series, func(i, j int) bool { return fv.series[i].sig < fv.series[j].sig })
		fmt.Fprintf(&b, "# HELP %s %s\n", fv.name, escapeHelp(fv.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fv.name, fv.typ)
		for _, s := range fv.series {
			s.m.writeText(&b, fv.name, s.sig)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Counter is a monotonically increasing int64 instrument. The zero value
// is ready to use and all methods are nil-safe, so uninstrumented code
// paths (tests building bare structs) cost nothing.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (call with n >= 0).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) writeText(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, float64(c.Value()))
}

// Gauge is a settable float64 instrument; the zero value is ready to use
// and methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

func (g *Gauge) writeText(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, g.Value())
}

// funcMetric renders a value read at scrape time.
type funcMetric func() float64

func (f funcMetric) writeText(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, f())
}

// labelSignature renders labels sorted by key into the exposition form
// `k1="v1",k2="v2"` — the deterministic series identity.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

// writeSample appends one `name{labels} value` line.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// withExtraLabel merges a series signature with one more pair (histogram
// le), keeping the extra last as Prometheus renders it.
func withExtraLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatValue renders a sample value: shortest round-trip float form, so
// integral values print without exponent or trailing zeros.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

// escapeHelp escapes a help string per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}
