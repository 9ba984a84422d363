package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share Op; ID and Parent number the spans within that op, and Parent 0
// marks the op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Root span names: an op's root covers its whole latency; a probe's root
// covers a side measurement taken outside any op's latency.
const (
	rootOp    = "bench.op"
	rootProbe = "bench.probe"
)

// tracer keeps every span of a run in memory until the run ends.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	probes int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one op or probe. It belongs to the goroutine
// running that op. A nil *opTrace records nothing, so untraced ops run the
// same code with tracing off.
type opTrace struct {
	t     *tracer
	op    int
	spans []span
	open  []int // indices into spans of the spans not yet left
}

// begin opens op's root span.
func (t *tracer) begin(op int) *opTrace {
	o := &opTrace{t: t, op: op}
	o.enter(rootOp)
	return o
}

// probe opens the root span of a side measurement.
func (t *tracer) probe() *opTrace {
	t.mu.Lock()
	t.probes++
	id := -t.probes
	t.mu.Unlock()
	o := &opTrace{t: t, op: id}
	o.enter(rootProbe)
	return o
}

func (o *opTrace) parent() int {
	if len(o.open) == 0 {
		return 0
	}
	return o.spans[o.open[len(o.open)-1]].ID
}

// enter opens a span named name under the innermost open span.
func (o *opTrace) enter(name string) {
	if o == nil {
		return
	}
	o.spans = append(o.spans, span{Name: name, Op: o.op, ID: len(o.spans) + 1, Parent: o.parent(),
		Start: int64(time.Since(o.t.epoch))})
	o.open = append(o.open, len(o.spans)-1)
}

// leave closes the innermost open span.
func (o *opTrace) leave() {
	if o == nil {
		return
	}
	i := o.open[len(o.open)-1]
	o.open = o.open[:len(o.open)-1]
	o.spans[i].End = int64(time.Since(o.t.epoch))
}

// add records a finished span whose ends were measured elsewhere, under the
// innermost open span.
func (o *opTrace) add(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.spans = append(o.spans, span{Name: name, Op: o.op, ID: len(o.spans) + 1, Parent: o.parent(),
		Start: int64(start.Sub(o.t.epoch)), End: int64(end.Sub(o.t.epoch))})
}

// finish closes every open span, the root last, and hands the spans to the
// tracer.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	for len(o.open) > 0 {
		o.leave()
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// writeNDJSON writes every span, one JSON object a line, ordered by op and
// span ID.
func (t *tracer) writeNDJSON(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Op != spans[j].Op {
			return spans[i].Op < spans[j].Op
		}
		return spans[i].ID < spans[j].ID
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanStats sums the spans of one name.
type spanStats struct {
	count int
	total time.Duration
}

// meanMS is the mean duration of one span in milliseconds, or 0 when no
// such span was recorded.
func (s spanStats) meanMS() float64 {
	if s.count == 0 {
		return 0
	}
	return ms(s.total) / float64(s.count)
}

// traceSummary is what a run's spans say about its layers.
type traceSummary struct {
	byName map[string]spanStats
	// ops counts the traced ops; wall sums their root spans.
	ops  int
	wall time.Duration
	// self sums each layer's self time over the traced ops.
	self map[string]time.Duration
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// summarize computes per-name totals over all spans, and each layer's self
// time over the traced ops. A span's self time is its duration minus the
// time its children cover; children that overlap their siblings can make
// that negative, and it is then counted as 0.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := traceSummary{byName: map[string]spanStats{}, self: map[string]time.Duration{}}
	type key struct{ op, id int }
	childTime := map[key]time.Duration{}
	for _, s := range t.spans {
		st := sum.byName[s.Name]
		st.count++
		st.total += s.dur()
		sum.byName[s.Name] = st
		if s.Parent != 0 {
			childTime[key{s.Op, s.Parent}] += s.dur()
		}
	}
	roots := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots[s.Op] = s.Name == rootOp
		}
	}
	for _, s := range t.spans {
		if !roots[s.Op] {
			continue // probe spans sit outside every op's latency
		}
		if s.Parent == 0 {
			sum.ops++
			sum.wall += s.dur()
		}
		self := s.dur() - childTime[key{s.Op, s.ID}]
		if self > 0 {
			sum.self[layerOf(s.Name)] += self
		}
	}
	return sum
}

// printLayers prints each layer's self time per traced op and checks that
// the layers' self times, the benchmark's own glue excluded, sum to within
// 10 % of the traced op wall time.
func (sum traceSummary) printLayers(w io.Writer) (ok bool) {
	if sum.ops == 0 {
		fmt.Fprintln(w, "layers: no traced ops")
		return false
	}
	n := float64(sum.ops)
	wall := ms(sum.wall) / n
	var covered float64
	fmt.Fprintf(w, "layer self time per traced op (%d ops, wall %.4f ms):\n", sum.ops, wall)
	for _, l := range layers {
		v := ms(sum.self[l]) / n
		if l != "bench" {
			covered += v
		}
		fmt.Fprintf(w, "  %-10s %10.4f ms  %5.1f %%\n", l, v, 100*v/wall)
	}
	ratio := covered / wall
	ok = ratio >= 0.9 && ratio <= 1.1
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "reconciliation: layers sum to %.1f %% of op wall time (want 90-110 %%): %s\n", 100*ratio, verdict)
	return ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
