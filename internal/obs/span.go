package obs

import (
	"context"
	"encoding/json"
	"io"
	"time"
)

// Span is one timed region of work, produced by Registry.StartSpanCtx
// (correlated into a request trace when ctx carries one, free-standing
// otherwise) and closed by End. Ending a span does two things: it
// observes the duration into the histogram "<name>.seconds" of the owning
// registry — attaching the trace ID as that bucket's exemplar when the
// span belongs to a sampled trace — and, if a trace writer is installed
// (SetTraceWriter, the -trace-out flag), emits one JSONL SpanEvent.
//
// A Span from a disabled registry is inert: the zero value, whose methods
// do nothing, so `sp, _ := reg.StartSpanCtx(...); defer sp.End()` is safe and
// allocation-free on disabled hot paths.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
	attrs map[string]string

	// Trace correlation (StartSpanCtx); all empty on free-standing spans.
	traceID  string
	spanID   string
	parentID string
	// sampled gates JSONL emission for traced spans. Free-standing spans
	// (no traceID) keep the legacy behavior: always emitted when a writer
	// is installed.
	sampled bool
}

// SpanEvent is the JSONL record written per ended span when tracing is on.
// Offline tooling (cmd/tracetool; OBSERVABILITY.md shows jq recipes)
// aggregates these. TraceID/SpanID/ParentID are set on spans started with
// StartSpanCtx under a valid TraceContext; a span with an empty ParentID
// is the root of its trace.
type SpanEvent struct {
	// Name is the span name, e.g. "core.game_value".
	Name string `json:"name"`
	// TraceID correlates every span of one request (32 hex chars).
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this span within its trace (16 hex chars).
	SpanID string `json:"span_id,omitempty"`
	// ParentID is the SpanID of the enclosing span; empty on the root.
	ParentID string `json:"parent_id,omitempty"`
	// StartUnixNS is the span's start wall-clock time in Unix nanoseconds.
	StartUnixNS int64 `json:"start_unix_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries the optional key/value annotations set via Annotate.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// StartSpanCtx opens a span named name under ctx's TraceContext and
// returns, alongside the span, a derived context in which the new span is
// the parent — pass it down so nested StartSpanCtx calls build the trace
// tree. When ctx carries no trace the span is free-standing and ctx is
// returned unchanged; while the registry is disabled both returns are
// inert.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) (Span, context.Context) {
	if !r.on() {
		return Span{}, ctx
	}
	sp := Span{reg: r, name: name, start: time.Now()}
	tc, ok := TraceFromContext(ctx)
	if !ok || !tc.Valid() {
		return sp, ctx
	}
	sp.traceID = tc.TraceID
	sp.parentID = tc.SpanID
	sp.spanID = newSpanID()
	sp.sampled = tc.Sampled
	child := TraceContext{TraceID: tc.TraceID, SpanID: sp.spanID, Sampled: tc.Sampled}
	return sp, ContextWithTrace(ctx, child)
}

// Annotate attaches a key/value pair to the span, visible in the JSONL
// event. No-op on an inert span.
func (s *Span) Annotate(key, value string) {
	if s.reg == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End closes the span: records its duration into the "<name>.seconds"
// histogram (with the trace ID as the bucket exemplar on sampled traced
// spans) and, when a trace writer is set, writes one SpanEvent line. A
// traced-but-unsampled span skips the event, never the histogram.
func (s *Span) End() {
	if s.reg == nil {
		return
	}
	dur := time.Since(s.start)
	h := s.reg.Histogram(s.name + ".seconds")
	if s.traceID != "" && s.sampled {
		h.ObserveWithExemplar(dur.Seconds(), s.traceID)
	} else {
		h.Observe(dur.Seconds())
	}
	if s.traceID == "" || s.sampled {
		s.reg.writeSpanEvent(SpanEvent{
			Name:        s.name,
			TraceID:     s.traceID,
			SpanID:      s.spanID,
			ParentID:    s.parentID,
			StartUnixNS: s.start.UnixNano(),
			DurNS:       dur.Nanoseconds(),
			Attrs:       s.attrs,
		})
	}
	s.reg = nil // make double-End harmless
}

// SetTraceWriter installs w as the JSONL sink for span events; nil
// detaches the current sink. The registry serializes writes, so w needs no
// locking of its own; the caller keeps ownership and closes w after the
// traced workload finishes.
func (r *Registry) SetTraceWriter(w io.Writer) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.traceW = w
}

// writeSpanEvent emits one JSONL line if a sink is installed. Encoding
// errors are deliberately dropped: tracing is diagnostics, never a reason
// to fail the traced computation.
func (r *Registry) writeSpanEvent(ev SpanEvent) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.traceW == nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	_, _ = r.traceW.Write(append(data, '\n'))
}
