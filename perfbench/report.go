package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metric is one reported number: its value, unit, and the samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// report collects a run's metrics and its operation counts.
type report struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int // operations that were refused, timed out or answered wrongly
	wrong     int // operations answered wrongly
	lines     []string
	shown     []metric // printed with the metrics but not part of the JSON result
}

func (r *report) add(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		note = fmt.Sprintf("not finite (%v), reported as 0; %s", v, note)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, v, unit, n, note})
}

// show adds a metric that is printed but left out of the JSON result.
func (r *report) show(name string, v float64, unit string, n int, note string) {
	r.shown = append(r.shown, metric{name, v, unit, n, note})
}

// addOps counts operations into the run's totals.
func (r *report) addOps(attempted, failed, wrong int) {
	r.attempted += attempted
	r.failed += failed
	r.wrong += wrong
}

// logf queues a free-form line for the human-readable part of the output.
func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// write prints the human-readable lines, one line per metric, and as the
// last line the JSON result object.
func (r *report) write(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if r.attempted > 0 {
		r.show("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.attempted, "refused, timed out or wrong, over attempted")
	}
	for _, m := range append(r.metrics, r.shown...) {
		fmt.Fprintf(w, "metric workload=%s name=%s value=%.6g unit=%s n=%d", r.workload, m.Name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			fmt.Fprintf(w, " note=%q", m.Note)
		}
		fmt.Fprintln(w)
	}
	last, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.wrong == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(last))
	return err
}

// complete checks that the run reported exactly the metrics in names, in
// that order, after filling with 0 each one whose layer the workload does
// not reach (marked in its note).
func (r *report) complete(names []string) error {
	have := map[string]metric{}
	for _, m := range r.metrics {
		have[m.Name] = m
	}
	if len(have) != len(r.metrics) {
		return fmt.Errorf("%s: a metric was reported twice", r.workload)
	}
	ordered := make([]metric, 0, len(names))
	for _, name := range names {
		m, ok := have[name]
		if !ok {
			m = metric{Name: name, Unit: unitOf(name), Note: "layer not on this workload's path"}
		}
		delete(have, name)
		ordered = append(ordered, m)
	}
	for name := range have {
		return fmt.Errorf("%s: metric %s is not in the benchmark's list", r.workload, name)
	}
	r.metrics = ordered
	return nil
}

// unitOf is the unit of a per-layer metric, read off its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "ms"):
		return "ms"
	case strings.HasSuffix(name, "kb"):
		return "KB"
	case strings.HasSuffix(name, "mb"):
		return "MB"
	case strings.HasPrefix(name, "par.speedup."):
		return "x"
	case strings.HasPrefix(name, "core.family."), strings.HasSuffix(name, "_ratio"), name == "par.imbalance":
		return "ratio"
	}
	return "count"
}
