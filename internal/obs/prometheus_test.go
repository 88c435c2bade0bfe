package obs

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSampleRe matches one exposition sample line: a valid metric name,
// an optional {le="..."} label set, a float value, and an optional
// OpenMetrics exemplar suffix (# {trace_id="..."} value timestamp).
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]+)"\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)( # \{trace_id="[0-9a-f]{32}"\} [0-9.eE+-]+ [0-9.eE+-]+)?$`)

// promTypeRe matches a # TYPE comment line.
var promTypeRe = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)

// validatePrometheus line-checks an exposition body (either rendering;
// the OpenMetrics `# EOF` terminator is accepted) and returns the
// parsed samples (name+labels → value).
func validatePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line != "# EOF" && !promTypeRe.MatchString(line) {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		var v float64
		switch m[4] {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		default:
			var err error
			if v, err = strconv.ParseFloat(m[4], 64); err != nil {
				t.Errorf("unparseable value in %q: %v", line, err)
			}
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestWritePrometheusExposition(t *testing.T) {
	r := enabledRegistry()
	r.Counter("demo.cells.ok").Add(7)
	r.Gauge("demo.workers").Set(4)
	h := r.Histogram("demo.cell_seconds")
	for _, v := range []float64{0.001, 0.002, 0.002, 0.5, 3} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	samples := validatePrometheus(t, body)

	if samples["demo_cells_ok"] != 7 {
		t.Errorf("counter sample = %v, want 7", samples["demo_cells_ok"])
	}
	if samples["demo_workers"] != 4 {
		t.Errorf("gauge sample = %v, want 4", samples["demo_workers"])
	}
	if !strings.Contains(body, "# TYPE demo_cell_seconds histogram") {
		t.Error("missing histogram TYPE line")
	}
	if samples["demo_cell_seconds_count"] != 5 {
		t.Errorf("_count = %v, want 5", samples["demo_cell_seconds_count"])
	}
	if got, want := samples["demo_cell_seconds_sum"], 0.001+0.002+0.002+0.5+3; math.Abs(got-want) > 1e-12 {
		t.Errorf("_sum = %v, want %v", got, want)
	}
	if samples[`demo_cell_seconds_bucket{le="+Inf"}`] != samples["demo_cell_seconds_count"] {
		t.Error("+Inf bucket must equal _count")
	}

	// Buckets must be cumulative and monotone in both le and count.
	prevLE := math.Inf(-1)
	prevCum := -1.0
	bucketLines := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "demo_cell_seconds_bucket{") {
			continue
		}
		bucketLines++
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bucket line %q did not parse", line)
		}
		le := math.Inf(1)
		if m[3] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(m[3], 64); err != nil {
				t.Fatalf("bucket le %q: %v", m[3], err)
			}
		}
		cum, _ := strconv.ParseFloat(m[4], 64)
		if le <= prevLE {
			t.Errorf("bucket le %v not increasing after %v", le, prevLE)
		}
		if cum < prevCum {
			t.Errorf("cumulative count %v decreased after %v", cum, prevCum)
		}
		prevLE, prevCum = le, cum
	}
	if bucketLines < 2 {
		t.Errorf("expected several bucket lines, got %d", bucketLines)
	}
}

// Exemplar exposition is OpenMetrics-only: in WriteOpenMetrics a bucket
// that received a sampled observation carries the trace ID in the
// exemplar syntax, on the bucket line that holds that observation, and
// the body ends with `# EOF` — while the 0.0.4 WritePrometheus body
// stays exemplar-free, because that format's grammar allows nothing
// after a sample value (a mid-line `#` fails the whole scrape).
func TestExpositionExemplars(t *testing.T) {
	r := enabledRegistry()
	r.Counter("traced.requests").Add(2)
	h := r.Histogram("traced.seconds")
	trace := strings.Repeat("ab", 16)
	h.Observe(0.001)
	h.ObserveWithExemplar(0.5, trace)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text004 := sb.String()
	samples := validatePrometheus(t, text004)
	if strings.Contains(text004, "# {trace_id=") {
		t.Error("text 0.0.4 body must not carry exemplars")
	}
	if strings.Contains(text004, "# EOF") {
		t.Error("text 0.0.4 body must not carry the OpenMetrics EOF marker")
	}
	if samples["traced_requests"] != 2 {
		t.Errorf("0.0.4 counter sample traced_requests = %v, want 2", samples["traced_requests"])
	}

	sb.Reset()
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	om := sb.String()
	omSamples := validatePrometheus(t, om)
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics body must end with # EOF")
	}
	if omSamples["traced_requests_total"] != 2 {
		t.Errorf("OpenMetrics counter sample traced_requests_total = %v, want 2 (samples: %v)",
			omSamples["traced_requests_total"], omSamples)
	}
	if !strings.Contains(om, "# TYPE traced_requests counter") {
		t.Error("OpenMetrics TYPE line must keep the family name without _total")
	}

	exemplarLines := 0
	for _, line := range strings.Split(om, "\n") {
		if !strings.Contains(line, "# {trace_id=") {
			continue
		}
		exemplarLines++
		if !strings.HasPrefix(line, "traced_seconds_bucket{") {
			t.Errorf("exemplar on a non-bucket line: %q", line)
		}
		if !strings.Contains(line, `# {trace_id="`+trace+`"} 0.5 `) {
			t.Errorf("exemplar payload wrong: %q", line)
		}
	}
	if exemplarLines != 1 {
		t.Fatalf("got %d exemplar lines, want exactly 1 (only the sampled bucket)", exemplarLines)
	}
}

func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := enabledRegistry()
	r.Histogram("quiet.seconds")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validatePrometheus(t, sb.String())
	if samples[`quiet_seconds_bucket{le="+Inf"}`] != 0 || samples["quiet_seconds_count"] != 0 {
		t.Errorf("empty histogram must expose zero +Inf bucket and count: %v", samples)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"experiments.cells.ok":   "experiments_cells_ok",
		"simplex.pivots":         "simplex_pivots",
		"already_fine:total":     "already_fine:total",
		"9starts.with.digit":     "_9starts_with_digit",
		"odd-chars per metric/s": "odd_chars_per_metric_s",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// The content-negotiation contract of /metrics: JSON by default (the
// pre-existing behavior, asserted by TestDebugMuxMetricsEndpoint), the
// Prometheus exposition on ?format=prometheus or a scraper Accept header.
func TestDebugMuxMetricsContentNegotiation(t *testing.T) {
	r := enabledRegistry()
	r.Counter("nego.hits").Add(3)
	r.Histogram("nego.seconds").Observe(0.25)
	srv := httptest.NewServer(newDebugMux(r))
	defer srv.Close()

	get := func(path string, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	// Explicit format query: Prometheus 0.0.4, line-format valid,
	// exemplar-free.
	body, ct := get("/metrics?format=prometheus", "")
	if ct != PrometheusContentType {
		t.Errorf("prometheus content-type = %q", ct)
	}
	samples := validatePrometheus(t, body)
	if samples["nego_hits"] != 3 {
		t.Errorf("nego_hits = %v, want 3", samples["nego_hits"])
	}
	if strings.Contains(body, "# {trace_id=") || strings.Contains(body, "# EOF") {
		t.Error("0.0.4 rendering must carry neither exemplars nor the EOF marker")
	}

	// OpenMetrics negotiation — explicit query or an OpenMetrics Accept
	// header (what a modern Prometheus scraper sends) — selects the
	// EOF-terminated rendering with _total counter samples: the only
	// body allowed to carry exemplars.
	for _, req := range []struct{ path, accept string }{
		{"/metrics?format=openmetrics", ""},
		{"/metrics", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.9"},
	} {
		body, ct := get(req.path, req.accept)
		if ct != OpenMetricsContentType {
			t.Errorf("GET %s Accept %q: content-type = %q, want OpenMetrics", req.path, req.accept, ct)
		}
		omSamples := validatePrometheus(t, body)
		if omSamples["nego_hits_total"] != 3 {
			t.Errorf("nego_hits_total = %v, want 3", omSamples["nego_hits_total"])
		}
		if !strings.HasSuffix(body, "# EOF\n") {
			t.Errorf("GET %s Accept %q: OpenMetrics body must end with # EOF", req.path, req.accept)
		}
	}

	// A text/plain-only scraper still negotiates the 0.0.4 exposition.
	if body, ct := get("/metrics", "text/plain"); ct != PrometheusContentType ||
		!strings.Contains(body, "# TYPE nego_hits counter") {
		t.Errorf("Accept text/plain: content-type %q did not negotiate text 0.0.4", ct)
	}

	// Default, browser, JSON-preferring and format=json requests stay JSON.
	for _, tc := range []struct{ path, accept string }{
		{"/metrics", ""},
		{"/metrics", "*/*"},
		{"/metrics", "text/html,application/xhtml+xml,*/*;q=0.8"},
		{"/metrics", "application/json, text/plain;q=0.5"},
		{"/metrics?format=json", "text/plain"},
	} {
		body, ct := get(tc.path, tc.accept)
		if ct != "application/json" || !strings.HasPrefix(strings.TrimSpace(body), "{") {
			t.Errorf("GET %s with Accept %q: content-type %q, want unchanged JSON", tc.path, tc.accept, ct)
		}
	}
}
