package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/defender-game/defender/internal/analyzers"
	"github.com/defender-game/defender/internal/analyzers/analysis"
)

// badmod is the seeded-violation fixture tree: one finding each for errlost,
// floateq, mutexcopy, nakedpanic, and the suppression auditor. Linted from
// this directory it is a partial run of the enclosing module, so its
// seeded deadexport finding stays silent (see TestDeadExportSeeded).
const badmod = "testdata/badmod/..."

// seededCounts is what the fixture is built to produce.
var seededCounts = map[string]int{
	"errlost": 1, "floateq": 1, "mutexcopy": 1, "nakedpanic": 1, "suppression": 1,
}

// TestRepositoryIsLintClean runs the full analyzer suite — test files
// included, as in CI — over the whole module and requires zero diagnostics:
// the repo must stay clean under its own invariant checks, so regressions
// fail `go test` directly rather than only the CI lint step.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	diags, _, err := Lint("../..", []string{"./..."}, analyzers.All(), true)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repository has %d defenderlint findings; fix them or annotate with // lint:invariant(<analyzer>): <reason> where justified", len(diags))
	}
}

// deadExports returns the deadexport findings among diags.
func deadExports(diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.Analyzer == "deadexport" {
			out = append(out, d)
		}
	}
	return out
}

// TestDeadExportSeeded lints badmod as a module of its own (it has a
// go.mod), test files included: the one run shape in which "nothing refers
// to it" is a fact, so the seeded unreferenced export is reported.
func TestDeadExportSeeded(t *testing.T) {
	diags, _, err := Lint("testdata/badmod", []string{"./..."}, analyzers.All(), true)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	dead := deadExports(diags)
	if len(dead) != 1 || !strings.Contains(dead[0].Message, "exported Orphan is never referenced") {
		t.Fatalf("deadexport findings = %v, want exactly the seeded Orphan", dead)
	}
	// Without test files the same complete run reports nothing.
	diags, _, err = Lint("testdata/badmod", []string{"./..."}, analyzers.All(), false)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if dead := deadExports(diags); len(dead) != 0 {
		t.Fatalf("run without test files reported %v", dead)
	}
}

// TestDeadExportNeedsCompleteTestRun covers the gate on the real module: a
// partial run sees none of the other packages that call internal/graph,
// and a run without test files misses the fixtures other packages' tests
// share, so either would report live exports as dead. Both must report no
// deadexport finding at all.
func TestDeadExportNeedsCompleteTestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	for _, tc := range []struct {
		name         string
		patterns     []string
		includeTests bool
	}{
		{"partial run with tests", []string{"./internal/graph"}, true},
		{"whole module without tests", []string{"./..."}, false},
	} {
		diags, _, err := Lint("../..", tc.patterns, analyzers.All(), tc.includeTests)
		if err != nil {
			t.Fatalf("%s: Lint: %v", tc.name, err)
		}
		if dead := deadExports(diags); len(dead) != 0 {
			t.Errorf("%s reported %d deadexport findings, want 0; first: %s", tc.name, len(dead), dead[0])
		}
	}
}

// runLint invokes the driver as main would, capturing both streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeFindings(t *testing.T) {
	code, stdout, stderr := runLint(t, badmod)
	if code != 1 {
		t.Fatalf("exit = %d with seeded violations, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for name := range seededCounts {
		if !strings.Contains(stdout, "("+name+")") {
			t.Errorf("stdout has no %s finding:\n%s", name, stdout)
		}
	}
	// The stderr summary carries per-analyzer counts.
	for name, n := range seededCounts {
		want := name + " " + string(rune('0'+n))
		if !strings.Contains(stderr, want) {
			t.Errorf("summary %q does not contain %q", strings.TrimSpace(stderr), want)
		}
	}
}

func TestExitCodeClean(t *testing.T) {
	// The fixture seeds no globalrand findings, and -only filters the
	// report down to that analyzer: exit 0 even though other findings
	// exist.
	code, stdout, _ := runLint(t, "-only", "globalrand", badmod)
	if code != 0 {
		t.Fatalf("exit = %d with -only globalrand, want 0\nstdout:\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Fatalf("expected empty report, got:\n%s", stdout)
	}
}

func TestExitCodeDriverError(t *testing.T) {
	if code, _, _ := runLint(t, "no/such/dir"); code != 2 {
		t.Fatalf("exit = %d for a missing package dir, want 2", code)
	}
	if code, _, _ := runLint(t, "-only", "nosuchanalyzer", badmod); code != 2 {
		t.Fatalf("exit = %d for an unknown -only name, want 2", code)
	}
	if code, _, _ := runLint(t, "-format", "nosuchformat", badmod); code != 2 {
		t.Fatalf("exit = %d for an unknown -format, want 2", code)
	}
	if code, _, _ := runLint(t, "-only", "errlost", "-skip", "floateq", badmod); code != 2 {
		t.Fatalf("exit = %d for -only with -skip, want 2", code)
	}
}

func TestSkipFilter(t *testing.T) {
	code, stdout, _ := runLint(t, "-skip", "errlost,floateq,mutexcopy,nakedpanic,suppression", badmod)
	if code != 0 {
		t.Fatalf("exit = %d with every seeded analyzer skipped, want 0\nstdout:\n%s", code, stdout)
	}
	code, stdout, _ = runLint(t, "-skip", "errlost", badmod)
	if code != 1 {
		t.Fatalf("exit = %d with only errlost skipped, want 1", code)
	}
	if strings.Contains(stdout, "(errlost)") {
		t.Fatalf("-skip errlost still reported errlost findings:\n%s", stdout)
	}
}

// TestSuppressionOnlyGate covers the CI stale-suppression step: the auditor
// is addressable as its own analyzer name.
func TestSuppressionOnlyGate(t *testing.T) {
	code, stdout, _ := runLint(t, "-only", "suppression", badmod)
	if code != 1 {
		t.Fatalf("exit = %d with a seeded stale suppression, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "stale suppression") {
		t.Fatalf("expected a stale-suppression finding, got:\n%s", stdout)
	}
}

func TestListIncludesAuditor(t *testing.T) {
	code, stdout, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d for -list, want 0", code)
	}
	for _, a := range analyzers.All() {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list omits analyzer %s", a.Name)
		}
	}
	if !strings.Contains(stdout, analysis.AuditorName) {
		t.Errorf("-list omits the suppression auditor")
	}
}

func TestJSONFormat(t *testing.T) {
	code, stdout, _ := runLint(t, "-format", "json", badmod)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var report []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, stdout)
	}
	counts := map[string]int{}
	for _, r := range report {
		counts[r.Analyzer]++
		if r.File == "" || r.Line == 0 || r.Message == "" {
			t.Errorf("incomplete json record: %+v", r)
		}
	}
	for name, n := range seededCounts {
		if counts[name] != n {
			t.Errorf("json reports %d %s findings, want %d", counts[name], name, n)
		}
	}
}

// TestSARIFFormat checks the SARIF 2.1.0 shape CI uploads: schema header,
// one rule per analyzer (plus the auditor), and one result per finding with
// a physical location.
func TestSARIFFormat(t *testing.T) {
	code, stdout, _ := runLint(t, "-format", "sarif", badmod)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("sarif output does not parse: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Fatalf("version = %q schema = %q, want SARIF 2.1.0", doc.Version, doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("len(runs) = %d, want 1", len(doc.Runs))
	}
	run0 := doc.Runs[0]
	rules := map[string]bool{}
	for _, r := range run0.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range analyzers.All() {
		if !rules[a.Name] {
			t.Errorf("sarif rules omit analyzer %s", a.Name)
		}
	}
	if !rules[analysis.AuditorName] {
		t.Errorf("sarif rules omit the suppression auditor")
	}
	total := 0
	for name, n := range seededCounts {
		total += n
		found := 0
		for _, r := range run0.Results {
			if r.RuleID == name {
				found++
			}
		}
		if found != n {
			t.Errorf("sarif has %d results for %s, want %d", found, name, n)
		}
	}
	if len(run0.Results) != total {
		t.Errorf("sarif has %d results, want %d", len(run0.Results), total)
	}
	for _, r := range run0.Results {
		if len(r.Locations) != 1 {
			t.Errorf("result %q has %d locations, want 1", r.RuleID, len(r.Locations))
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("result %q has URI %q, want a relative path", r.RuleID, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result %q has startLine %d", r.RuleID, loc.Region.StartLine)
		}
	}
}

func TestSummary(t *testing.T) {
	if got := summary(nil); got != "defenderlint: clean" {
		t.Fatalf("summary(nil) = %q", got)
	}
	diags := []analysis.Diagnostic{
		{Analyzer: "errlost"}, {Analyzer: "errlost"}, {Analyzer: "ratraw"},
	}
	got := summary(diags)
	want := "defenderlint: 3 findings (errlost 2, ratraw 1)"
	if got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}
