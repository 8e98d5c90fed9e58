package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one request share Req; Parent links a
// span to the span that caused it (0 for none).
type Span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUs"` // since the tracer was created
	End    float64 `json:"endUs"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing off: every method is a no-op that costs one nil check, so the
// untraced pass runs the same code without recording anything.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

// NewTracer starts an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Record stores a span timed by the caller.
func (t *Tracer) Record(name string, parent uint64, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3,
		End:   float64(end.Sub(t.t0)) / 1e3,
	})
}

// Open is a span that has started and not yet ended.
type Open struct {
	t      *Tracer
	id     uint64
	parent uint64
	req    int64
	name   string
	start  time.Time
}

// Start opens a span; its ID is known at once, so child spans can name it
// as their parent before it ends.
func (t *Tracer) Start(name string, parent uint64, req int64) Open {
	if t == nil {
		return Open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return Open{t: t, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// ID is the span's identifier (0 when tracing is off).
func (o Open) ID() uint64 { return o.id }

// End closes the span and stores it.
func (o Open) End() {
	if o.t == nil {
		return
	}
	end := time.Now()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.spans = append(o.t.spans, Span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: float64(o.start.Sub(o.t.t0)) / 1e3,
		End:   float64(end.Sub(o.t.t0)) / 1e3,
	})
}

// Time runs f inside a span with the given parent and returns f's error.
func (t *Tracer) Time(name string, parent uint64, f func() error) error {
	sp := t.Start(name, parent, -1)
	err := f()
	sp.End()
	return err
}

// Durations returns the durations of every span with the given name, in
// the given unit.
func (t *Tracer) Durations(name string, unit time.Duration) *Dist {
	var d Dist
	if t == nil {
		return &d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d.Add((s.End - s.Start) * 1e3 / float64(unit))
		}
	}
	return &d
}

// WriteFile writes every span as JSON.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spansNamed returns a copy of the spans with the given name.
func (t *Tracer) spansNamed(name string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
