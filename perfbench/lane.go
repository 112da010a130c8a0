package main

import (
	"context"
	"time"

	"stringloops/internal/obs"
)

// lane is one goroutine's view of the traced run: an internal/obs span
// per call into a layer, plus the self time (span minus the part its child
// spans cover) charged to each layer as the span closes. The nil lane is
// the untraced mode: every method is a no-op, so the end-to-end passes run
// the same code with nothing but a nil check added.
type lane struct {
	tr    *obs.Tracer
	stack []frame
	// self sums self time per layer over the whole run; row sums it for
	// the loop currently open (see beginRow).
	self map[string]time.Duration
	row  map[string]time.Duration
	// roots sums the durations of the lane's outermost spans: the lane
	// time the layer self times account for.
	roots time.Duration
}

type frame struct {
	name  string
	ctx   context.Context
	span  *obs.Span
	start time.Time
	child time.Duration
}

func newLane(tr *obs.Tracer) *lane {
	return &lane{tr: tr, self: map[string]time.Duration{}}
}

// begin opens a span named after the layer being called.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	ctx := context.Background()
	if n := len(l.stack); n > 0 {
		ctx = l.stack[n-1].ctx
	}
	ctx, span := l.tr.StartSpan(ctx, name)
	l.stack = append(l.stack, frame{name: name, ctx: ctx, span: span, start: time.Now()})
}

// end closes the innermost span and charges its self time to its layer.
func (l *lane) end() { l.endAs("") }

// endAs is end for spans whose layer is known only once the call returns
// (a CEGIS search is a hit or a miss): the self time goes to name, which
// is also recorded on the span as its "layer" attribute.
func (l *lane) endAs(name string) {
	if l == nil {
		return
	}
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	dur := time.Since(f.start)
	if name == "" {
		name = f.name
	} else {
		f.span.SetAttr("layer", name)
	}
	f.span.End()
	self := dur - f.child
	l.self[name] += self
	if l.row != nil {
		l.row[name] += self
	}
	if n > 0 {
		l.stack[n-1].child += dur
	} else {
		l.roots += dur
	}
}

// charge attributes d of the innermost open span to a sub-layer the
// benchmark cannot wrap in a span of its own — a part of a daemon request
// the server measured and reported in its response.
func (l *lane) charge(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.stack[len(l.stack)-1].child += d
	l.self[name] += d
	if l.row != nil {
		l.row[name] += d
	}
}

// beginRow starts collecting per-layer self times for one loop's row.
func (l *lane) beginRow() {
	if l != nil {
		l.row = map[string]time.Duration{}
	}
}

// endRow returns the open row's layer self times in milliseconds.
func (l *lane) endRow() map[string]float64 {
	if l == nil {
		return nil
	}
	out := make(map[string]float64, len(l.row))
	for k, v := range l.row {
		out[k] = ms(v)
	}
	l.row = nil
	return out
}
