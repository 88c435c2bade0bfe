package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsHistogramAndEvent(t *testing.T) {
	r := enabledRegistry()
	var buf bytes.Buffer
	r.SetTraceWriter(&buf)

	sp := r.StartSpan("unit.work")
	sp.Annotate("table", "E1")
	sp.End()

	h := r.Histogram("unit.work.seconds")
	if h.Count() != 1 {
		t.Fatalf("span end must observe the duration histogram, count = %d", h.Count())
	}
	var ev SpanEvent
	line := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("trace line is not JSON: %v\n%q", err, line)
	}
	if ev.Name != "unit.work" || ev.DurNS < 0 || ev.StartUnixNS == 0 {
		t.Errorf("bad span event: %+v", ev)
	}
	if ev.Attrs["table"] != "E1" {
		t.Errorf("annotation lost: %+v", ev.Attrs)
	}
}

func TestSpanDoubleEndHarmless(t *testing.T) {
	r := enabledRegistry()
	sp := r.StartSpan("twice")
	sp.End()
	sp.End()
	if got := r.Histogram("twice.seconds").Count(); got != 1 {
		t.Fatalf("double End recorded %d observations, want 1", got)
	}
}

func TestInertSpanMethods(t *testing.T) {
	var sp Span
	sp.Annotate("k", "v")
	sp.End() // must not panic or record
	r := NewRegistry()
	sp2 := r.StartSpan("disabled")
	sp2.End()
	r.SetEnabled(true)
	if got := r.Histogram("disabled.seconds").Count(); got != 0 {
		t.Fatalf("disabled-time span recorded %d observations", got)
	}
}

func TestNoTraceWriterStillObserves(t *testing.T) {
	r := enabledRegistry()
	sp := r.StartSpan("untraced")
	sp.End()
	if got := r.Histogram("untraced.seconds").Count(); got != 1 {
		t.Fatalf("span without trace writer must still feed the histogram, count = %d", got)
	}
}

// Concurrent spans must interleave into whole JSONL lines, never torn ones.
func TestSpanTraceWriterSerialized(t *testing.T) {
	r := enabledRegistry()
	var buf bytes.Buffer
	r.SetTraceWriter(&buf)
	const spans = 200
	var wg sync.WaitGroup
	for i := 0; i < spans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.StartSpan("par")
			sp.End()
		}()
	}
	wg.Wait()
	r.SetTraceWriter(nil)
	lines := 0
	scanner := bufio.NewScanner(&buf)
	for scanner.Scan() {
		var ev SpanEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("torn trace line: %v\n%q", err, scanner.Text())
		}
		lines++
	}
	if lines != spans {
		t.Fatalf("trace has %d lines, want %d", lines, spans)
	}
}

// StartSpan opens a free-standing span named name, uncorrelated to any
// trace. While the registry is disabled this returns the inert zero Span.
func (r *Registry) StartSpan(name string) Span {
	if !r.on() {
		return Span{}
	}
	return Span{reg: r, name: name, start: time.Now()}
}

// TraceID returns the span's trace ID ("" on free-standing or inert
// spans).
func (s *Span) TraceID() string { return s.traceID }
