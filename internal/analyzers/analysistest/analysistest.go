// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want "regexp" comments, following the
// conventions of golang.org/x/tools/go/analysis/analysistest: a fixture
// line may carry one or more expectations, each a double-quoted Go string
// holding a regular expression that must match a diagnostic reported on
// that line. Unmatched diagnostics and unsatisfied expectations both fail
// the test.
package analysistest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/defender-game/defender/internal/analyzers/analysis"
)

// expectation is one // want entry: a compiled regexp anchored to a line.
type expectation struct {
	file string // path, as the loader names the file
	line int
	re   *regexp.Regexp
	met  bool
}

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)$`)

// mdWantRx is wantRx for markdown fixtures (a catalogue row a Finish hook
// reports on), where the expectation is an HTML comment.
var mdWantRx = regexp.MustCompile(`<!--\s*want\s+(.*?)\s*-->`)

// Run loads the fixture package rooted at dir under the given import path,
// applies the analyzer through the whole-module engine, and reports
// mismatches through t. The import path matters for analyzers scoped by
// package location (e.g. nakedpanic only fires inside internal/ trees).
//
// Non-stdlib imports in fixture files resolve against dir's parent — a
// fixture at testdata/src/errlost may import "internal/rat" and get the
// stand-in at testdata/src/internal/rat. The module root is dir itself, so
// analyzers that read module-root files (metricname's OBSERVABILITY.md
// catalogue) pick up per-fixture copies. The suppression auditor runs as in
// production: its findings are matched against // want comments like any
// analyzer's.
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewFixtureLoader(filepath.Dir(dir))
	if err != nil {
		t.Fatalf("analysistest: new loader: %v", err)
	}
	pkg, err := loader.LoadFixture(dir, pkgPath)
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	module := analysis.NewModule(loader.Fset, dir)
	module.Complete = true // the fixture package is the whole module
	check(t, module, []*analysis.Package{pkg}, []string{dir}, a)
}

// RunModule loads the fixture packages named by pkgPaths, each at
// root/<path> and with its _test.go files, and applies the analyzer to
// them as one complete, test-inclusive module — the shape of a
// `defenderlint -include-tests ./...` run, for analyzers whose findings
// depend on references between packages and from tests. Imports resolve
// under root, which is also the module root. Expectations are read from
// every loaded package directory.
func RunModule(t *testing.T, root string, pkgPaths []string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewFixtureLoader(root)
	if err != nil {
		t.Fatalf("analysistest: new loader: %v", err)
	}
	var pkgs []*analysis.Package
	var dirs []string
	for _, path := range pkgPaths {
		dir := filepath.Join(root, filepath.FromSlash(path))
		variants, err := loader.LoadFixtureWithTests(dir, path)
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", dir, err)
		}
		pkgs = append(pkgs, variants...)
		dirs = append(dirs, dir)
	}
	module := analysis.NewModule(loader.Fset, root)
	module.Complete, module.IncludeTests = true, true
	check(t, module, pkgs, dirs, a)
}

// check runs the analyzer over pkgs and matches its diagnostics against
// the expectations found in dirs.
func check(t *testing.T, module *analysis.Module, pkgs []*analysis.Package, dirs []string, a *analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.RunModule(module, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: run %s: %v", a.Name, err)
	}

	var expects []*expectation
	for _, dir := range dirs {
		es, err := parseExpectations(dir)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		expects = append(expects, es...)
	}

	for _, d := range diags {
		if !claim(expects, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unmet expectation matching d and reports success.
func claim(expects []*expectation, d analysis.Diagnostic) bool {
	file := filepath.Clean(d.Pos.Filename)
	for _, e := range expects {
		if !e.met && e.file == file && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
			e.met = true
			return true
		}
	}
	return false
}

// parseExpectations scans every .go file under dir for // want comments
// and every .md file for <!-- want ... --> comments.
func parseExpectations(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, entry := range entries {
		var rx *regexp.Regexp
		switch {
		case entry.IsDir():
			continue
		case strings.HasSuffix(entry.Name(), ".go"):
			rx = wantRx
		case strings.HasSuffix(entry.Name(), ".md"):
			rx = mdWantRx
		default:
			continue
		}
		path := filepath.Join(dir, entry.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			m := rx.FindStringSubmatch(scanner.Text())
			if m == nil {
				continue
			}
			patterns, err := splitQuoted(m[1])
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: malformed want: %v", entry.Name(), line, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", entry.Name(), line, p, err)
				}
				out = append(out, &expectation{file: filepath.Clean(path), line: line, re: re})
			}
		}
		if err := scanner.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return out, nil
}

// splitQuoted parses a sequence of space-separated double-quoted or
// backquoted Go strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated string in %q", s)
		}
		unq, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, err
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}
