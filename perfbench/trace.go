package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records spans at the layer boundaries the benchmark drives:
// RunExperiment, each point, the cache, each downstream simulation, each
// irregular vector superstep, the algos and qrqw calls and rendering.
// Spans are kept in memory and written out when the run ends. A nil
// *tracer records nothing, so untraced passes pay one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed interval. Parent is the index of the enclosing span,
// or -1; Point names the sweep point the span belongs to ("" above points).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Point  string `json:"point,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanKey carries the enclosing span through a context, so spans opened
// in code the runner calls (points, the cache, simulations) find their
// parent across goroutines.
type spanKey struct{}

type spanRef struct {
	id    int
	point string
}

func parentOf(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{id: -1}
}

// begin opens a span under the context's span and returns its id with a
// context carrying it. point, when non-empty, overrides the inherited
// point id.
func (t *tracer) begin(ctx context.Context, name, point string) (int, context.Context) {
	if t == nil {
		return -1, ctx
	}
	parent := parentOf(ctx)
	if point == "" {
		point = parent.point
	}
	id := t.open(name, parent.id, point)
	return id, context.WithValue(ctx, spanKey{}, spanRef{id: id, point: point})
}

// open starts a span with an explicit parent; it is the form used by
// hooks that have no context (vector supersteps).
func (t *tracer) open(name string, parent int, point string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Point: point})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Children run
// concurrently under a RunExperiment span, so coverage is the union of
// the child intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the listed spans' intervals
// within [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// layerTimes sums, per span name, the total duration and the total self
// time, in seconds.
func layerTimes(spans []span) (busy, self map[string]float64) {
	busy, self = make(map[string]float64), make(map[string]float64)
	st := selfTimes(spans)
	for i, s := range spans {
		busy[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(st[i]) / 1e9
	}
	return busy, self
}
