// Package obs is the zero-dependency observability layer of the library:
// counters, gauges, streaming latency histograms, and lightweight span
// tracing, collected in a concurrency-safe Registry and surfaced as a JSON
// snapshot (the `metrics` block of BENCH_experiments.json, the /metrics
// endpoint of -debug-addr) and as JSONL span events (-trace-out).
//
// Design constraints, in order:
//
//  1. Hot paths pay ~nothing when disabled. The process-wide Default
//     registry starts disabled; every record operation is a single atomic
//     load and branch in that state, and StartSpanCtx returns an inert Span
//     without allocating. Instrumented packages therefore create their
//     metric handles unconditionally at init and never guard call sites.
//  2. No dependencies beyond the standard library, matching the rest of
//     the repository.
//  3. Recording never changes observable program output. Metrics are
//     strictly write-only from the instrumented code's point of view; the
//     golden-table suite runs with metrics enabled to prove it.
//
// Metric names are dot-separated lowercase paths ("experiments.cells.
// started"); every name used by this repository is catalogued with
// its meaning and unit in OBSERVABILITY.md.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; construct with NewRegistry. A Registry records only
// while enabled (SetEnabled); handles obtained while it was disabled start
// recording as soon as it is enabled, so enabling late (e.g. from a CLI
// flag) retroactively activates every instrumented call site.
type Registry struct {
	enabled atomic.Bool

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	traceMu sync.Mutex
	traceW  io.Writer
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// std is the process-wide default registry. It starts disabled, so library
// code instrumented against it is inert until a command (or a test)
// explicitly enables it.
var std = NewRegistry()

// Default returns the process-wide registry that all instrumented packages
// of this repository record into.
func Default() *Registry { return std }

// SetEnabled turns recording on or off. Metric values survive a disable;
// use Reset to zero them.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is currently recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// on is the per-record fast-path check shared by every metric handle.
func (r *Registry) on() bool { return r != nil && r.enabled.Load() }

// Counter returns the counter registered under name, creating it if
// needed. Counters are monotone event totals (unit: events).
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{reg: r}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Gauges hold the latest value of a level (cache entries, workers).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{reg: r}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed. The unit of the observed values is part of the metric's contract
// and is conventionally suffixed to the name ("…_seconds", "…_rounds").
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram(r)
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Handles held by
// instrumented packages stay valid; only their values are cleared. Tests
// use this to assert exact deltas.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.n.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// Counter is a monotone event counter, safe for concurrent use. All
// methods are no-ops on a nil receiver or while the owning registry is
// disabled.
type Counter struct {
	reg *Registry
	n   atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) {
	if c == nil || !c.reg.on() {
		return
	}
	c.n.Add(delta)
}

// Value returns the current total. Reads are always allowed, even while
// the registry is disabled.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value-wins level metric, safe for concurrent use. All
// write methods are no-ops on a nil receiver or while the owning registry
// is disabled.
type Gauge struct {
	reg  *Registry
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.reg.on() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped
// for JSON: the `metrics` block of BENCH_experiments.json and the body of
// the /metrics debug endpoint. Map keys are metric names; encoding/json
// sorts them, so serialized snapshots are deterministically ordered.
type Snapshot struct {
	// Counters holds each counter's cumulative count.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges holds each gauge's current level.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds each histogram's distribution summary.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered metric. It is safe
// to call concurrently with recording; each metric is read atomically, the
// set as a whole is a best-effort cut (no global pause).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
