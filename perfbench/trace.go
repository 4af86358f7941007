package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the call. Spans of one benchmark operation share Op; Parent is
// the ID of the span that caused this one (0 for an operation's root).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Name     string             `json:"name"`
	StartUS  float64            `json:"start_us"`
	EndUS    float64            `json:"end_us"`
	AllocB   uint64             `json:"alloc_bytes,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s *span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory for the whole run; write dumps them at exit.
// A nil *tracer is the untraced mode: every method is a no-op apart from
// running the wrapped call, so traced and untraced runs share one code path.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	lastOp int
	// bookkeeping is the time spent reading allocation statistics around
	// calls, which stops the world and is the tracer's main cost.
	bookkeeping time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) us(t time.Time) float64 { return float64(t.Sub(tr.t0)) / float64(time.Microsecond) }

// newOp returns a fresh operation ID.
func (tr *tracer) newOp() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lastOp++
	return tr.lastOp
}

// record appends a finished span and returns its ID.
func (tr *tracer) record(s span) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s.ID = len(tr.spans) + 1
	tr.spans = append(tr.spans, s)
	return s.ID
}

// op runs fn as the root span of operation op, passing fn the span's ID
// as the parent for its calls.
func (tr *tracer) op(name string, op int, fn func(parent int)) {
	if tr == nil {
		fn(0)
		return
	}
	id := tr.record(span{Op: op, Name: name, StartUS: tr.us(time.Now())})
	fn(id)
	end := tr.us(time.Now())
	tr.mu.Lock()
	tr.spans[id-1].EndUS = end
	tr.mu.Unlock()
}

// call runs fn as a span under parent and records the bytes it allocated
// (the runtime's TotalAlloc delta; the workloads that use call are single
// goroutine, so the delta is the call's own).
func (tr *tracer) call(name string, parent, op int, fn func()) int {
	if tr == nil {
		fn()
		return 0
	}
	var before, after runtime.MemStats
	b0 := time.Now()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	tr.mu.Lock()
	tr.bookkeeping += start.Sub(b0) + time.Since(end)
	tr.mu.Unlock()
	return tr.record(span{
		Parent: parent, Op: op, Name: name,
		StartUS: tr.us(start), EndUS: tr.us(end),
		AllocB: after.TotalAlloc - before.TotalAlloc,
	})
}

// annotate attaches the counters a call returned to its span.
func (tr *tracer) annotate(id int, counters map[string]float64) {
	if tr == nil || id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].Counters = counters
}

// named returns the spans with any of the given names, in recording order.
func (tr *tracer) named(names ...string) []*span {
	var out []*span
	for i := range tr.spans {
		for _, n := range names {
			if tr.spans[i].Name == n {
				out = append(out, &tr.spans[i])
				break
			}
		}
	}
	return out
}

// durations returns the wall times in milliseconds of the named spans.
func (tr *tracer) durations(names ...string) []float64 {
	var out []float64
	for _, s := range tr.named(names...) {
		out = append(out, s.ms())
	}
	return out
}

// counter returns one counter of every named span.
func (tr *tracer) counter(key string, names ...string) []float64 {
	var out []float64
	for _, s := range tr.named(names...) {
		out = append(out, s.Counters[key])
	}
	return out
}

// counterSum totals one counter over the named spans.
func (tr *tracer) counterSum(key string, names ...string) float64 {
	return sum(tr.counter(key, names...))
}

// allocMB returns the megabytes allocated by each named span.
func (tr *tracer) allocMB(names ...string) []float64 {
	var out []float64
	for _, s := range tr.named(names...) {
		out = append(out, float64(s.AllocB)/(1<<20))
	}
	return out
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
