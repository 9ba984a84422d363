package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// DefaultSpanBuffer is the default recorder capacity: enough for the spans
// of many concurrent campaigns while bounding daemon memory.
const DefaultSpanBuffer = 4096

// Recorder is a bounded ring buffer of finished spans. When full, the
// oldest spans are overwritten — the traces surface is a diagnostic
// window, not an archive, and its memory must stay bounded under heavy
// traffic.
type Recorder struct {
	mu    sync.Mutex
	buf   []SpanRecord
	next  int   // ring write position
	total int64 // spans ever recorded
}

// NewRecorder returns a recorder holding up to capacity spans
// (capacity < 1 selects DefaultSpanBuffer).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = DefaultSpanBuffer
	}
	return &Recorder{buf: make([]SpanRecord, 0, capacity)}
}

// add appends one finished span, overwriting the oldest when full.
func (r *Recorder) add(rec SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns the number of buffered spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns how many spans were ever recorded (buffered + overwritten).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered spans oldest-first (completion order).
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// WriteNDJSON writes the buffered spans as newline-delimited JSON, one
// span per line, oldest first — the /v1/traces and -trace file format.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Snapshot() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the buffered spans to the file at path, created or
// truncated, in the WriteNDJSON format: the -trace files of the CLIs and
// the daemon.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteNDJSON(f); err != nil {
		//lint:ignore unchecked-error the write error already reports the failure; close is cleanup on the error path
		f.Close()
		return err
	}
	return f.Close()
}
