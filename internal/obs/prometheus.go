package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Content types of the two text renderings of /metrics.
const (
	// PrometheusContentType labels the classic text format 0.0.4 body
	// (WritePrometheus) — the pre-OpenMetrics format every Prometheus
	// scraper accepts. This rendering never carries exemplars: the
	// 0.0.4 grammar only allows `value [timestamp]` after a sample, so
	// a mid-line `#` would fail the whole scrape.
	PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"
	// OpenMetricsContentType labels the OpenMetrics 1.0 body
	// (WriteOpenMetrics) — the only rendering that carries histogram
	// exemplars, terminated by the mandatory `# EOF`.
	OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format 0.0.4, so the -debug-addr server is scrapeable by
// standard collectors (GET /metrics?format=prometheus, or an Accept
// header asking for text; see newDebugMux). Without external
// dependencies the encoding is done by hand, which the format is
// explicitly designed to allow.
//
// Dot-separated registry names become underscore-separated Prometheus
// names ("experiments.cells.ok" → "experiments_cells_ok"); metrics are
// emitted in sorted name order so the output is deterministic. Histograms
// become the conventional cumulative triplet: one "_bucket" series per
// geometric bucket upper bound with an `le` label (trailing empty buckets
// elided), a terminal le="+Inf" bucket, and "_sum"/"_count" series. The
// +Inf bucket and _count are both computed from the same bucket sweep, so
// the exposition invariant bucket{le="+Inf"} == count holds even while
// writers race the render.
//
// The body is exemplar-free by design: text format 0.0.4 has no exemplar
// syntax (comments must start a line), so exemplars are exposed only by
// WriteOpenMetrics to clients that negotiated OpenMetrics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the same metric families as WritePrometheus
// in the OpenMetrics 1.0 text format: counter samples gain the
// spec-mandated "_total" suffix, histogram buckets holding a sampled
// traced observation carry their `# {trace_id="…"} value timestamp`
// exemplar, and the body ends with the mandatory `# EOF` terminator.
// Serve it only to clients that asked for OpenMetrics (Content-Type
// OpenMetricsContentType); 0.0.4 parsers reject the exemplar suffix.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		sn := pn
		if openMetrics && !strings.HasSuffix(sn, "_total") {
			// OpenMetrics counter samples are "<family>_total"; the TYPE
			// line keeps the family name.
			sn += "_total"
		}
		fmt.Fprintf(bw, "%s %d\n", sn, r.counters[name].Value())
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(bw, "%s %s\n", pn, promFloat(r.gauges[name].Value()))
	}

	names = names[:0]
	for name := range r.histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writePromHistogram(bw, promName(name), r.histograms[name], openMetrics)
	}
	if openMetrics {
		fmt.Fprintf(bw, "# EOF\n")
	}
	return bw.Flush()
}

// writePromHistogram emits one histogram's cumulative series. In the
// OpenMetrics rendering, buckets holding the most recent sampled
// observation of a traced request carry an exemplar suffix —
//
//	name_bucket{le="0.25"} 17 # {trace_id="4bf9..."} 0.21 1754650000.123
//
// — linking the bucket back to a concrete trace in the JSONL stream
// (cmd/tracetool renders it; see TRACING.md). The 0.0.4 rendering omits
// exemplars: its grammar allows nothing after the sample value, so the
// suffix would abort a text-format scrape mid-line.
func writePromHistogram(w io.Writer, pn string, h *Histogram, openMetrics bool) {
	counts := h.bucketCounts()
	last := -1
	for i, c := range counts {
		if c > 0 {
			last = i
		}
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d", pn, promFloat(bucketUpper(i)), cum)
		if openMetrics && counts[i] > 0 {
			if ex := h.exemplars[i].Load(); ex != nil {
				fmt.Fprintf(w, " # {trace_id=%q} %s %s", ex.TraceID, promFloat(ex.Value),
					promFloat(float64(ex.UnixNano)/1e9))
			}
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
	fmt.Fprintf(w, "%s_sum %s\n", pn, promFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", pn, cum)
}

// promName maps a registry metric name onto the Prometheus name charset
// [a-zA-Z0-9_:], replacing every other rune (the dots of this repo's
// naming scheme, mostly) with '_' and prefixing a '_' when the first rune
// is a digit.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float the way Prometheus parsers expect: shortest
// round-trip form, no localized formatting.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
