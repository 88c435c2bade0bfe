// Command defenderlint runs the project's eleven invariant analyzers (plus
// the suppression auditor) over packages of this module — a multichecker in
// the style of golang.org/x/tools/go/analysis/multichecker, built on the
// dependency-free whole-module engine in internal/analyzers/analysis.
//
// Usage:
//
//	go run ./cmd/defenderlint [flags] [patterns]
//
//	-only names     report only these analyzers (comma-separated)
//	-skip names     report all but these analyzers
//	-format kind    output format: text (default), json, or sarif
//	-o file         write the report to file instead of stdout
//	-include-tests  also analyze _test.go files
//	-list           list registered analyzers and exit
//
// Patterns are package directories or the recursive pattern "./...". With
// no pattern, "./..." is assumed.
//
// Every analyzer always runs: -only and -skip filter what is *reported*,
// not what executes. Filtering at the report stage keeps two properties the
// cheap alternative would lose — type-checking dominates the cost anyway,
// and suppression staleness stays truthful (a lint:invariant(floateq)
// comment is not "stale" merely because a -only=errlost run ignored
// floateq). The auditor participates under the name "suppression", so a CI
// stale-suppression gate is just `-only suppression`.
//
// The exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 on a driver error (bad flags, unknown analyzer names,
// load or type-check failure).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/defender-game/defender/internal/analyzers"
	"github.com/defender-game/defender/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("defenderlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	only := flags.String("only", "", "comma-separated analyzer names to report (default: all)")
	skip := flags.String("skip", "", "comma-separated analyzer names to suppress from the report")
	format := flags.String("format", "text", "output format: text, json, or sarif")
	outFile := flags.String("o", "", "write the report to this file instead of stdout")
	includeTests := flags.Bool("include-tests", false, "also analyze _test.go files")
	list := flags.Bool("list", false, "list registered analyzers and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(stdout, "%-12s %s\n", analysis.AuditorName, analysis.AuditorDoc)
		return 0
	}
	reportable, err := reportFilter(suite, *only, *skip)
	if err != nil {
		fmt.Fprintf(stderr, "defenderlint: %v\n", err)
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "defenderlint: unknown -format=%s (want text, json, or sarif)\n", *format)
		return 2
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, root, err := Lint(".", patterns, suite, *includeTests)
	if err != nil {
		fmt.Fprintf(stderr, "defenderlint: %v\n", err)
		return 2
	}
	reported := diags[:0]
	for _, d := range diags {
		if reportable[d.Analyzer] {
			reported = append(reported, d)
		}
	}

	out := stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(stderr, "defenderlint: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	if err := write(out, *format, reported, suite, root); err != nil {
		fmt.Fprintf(stderr, "defenderlint: %v\n", err)
		return 2
	}

	fmt.Fprintln(stderr, summary(reported))
	if len(reported) > 0 {
		return 1
	}
	return 0
}

// Lint loads every package matched by patterns (relative to dir) and runs
// the full suite through the module engine, returning all diagnostics
// sorted by position plus the module root for path rendering.
func Lint(dir string, patterns []string, suite []*analysis.Analyzer, includeTests bool) ([]analysis.Diagnostic, string, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, "", err
	}
	dirs, err := expand(dir, patterns)
	if err != nil {
		return nil, "", err
	}
	var pkgs []*analysis.Package
	for _, pkgDir := range dirs {
		if includeTests {
			variants, err := loader.LoadDirWithTests(pkgDir)
			if err != nil {
				return nil, "", err
			}
			pkgs = append(pkgs, variants...)
			continue
		}
		pkg, err := loader.LoadDir(pkgDir)
		if err != nil {
			return nil, "", err
		}
		pkgs = append(pkgs, pkg)
	}
	module := analysis.NewModule(loader.Fset, loader.ModuleRoot)
	module.IncludeTests = includeTests
	if module.Complete, err = coversModule(dirs, loader.ModuleRoot); err != nil {
		return nil, "", err
	}
	diags, err := analysis.RunModule(module, pkgs, suite)
	if err != nil {
		return nil, "", err
	}
	return diags, loader.ModuleRoot, nil
}

// write renders the report in the requested format.
func write(w io.Writer, format string, diags []analysis.Diagnostic, suite []*analysis.Analyzer, root string) error {
	switch format {
	case "json":
		return analysis.WriteJSON(w, diags, root)
	case "sarif":
		return analysis.WriteSARIF(w, diags, suite, root)
	default:
		for _, d := range diags {
			if _, err := fmt.Fprintln(w, d); err != nil {
				return err
			}
		}
		return nil
	}
}

// summary formats the per-analyzer finding counts for stderr.
func summary(diags []analysis.Diagnostic) string {
	if len(diags) == 0 {
		return "defenderlint: clean"
	}
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %d", name, counts[name]))
	}
	noun := "findings"
	if len(diags) == 1 {
		noun = "finding"
	}
	return fmt.Sprintf("defenderlint: %d %s (%s)", len(diags), noun, strings.Join(parts, ", "))
}

// reportFilter resolves -only/-skip into the set of analyzer names whose
// diagnostics are reported. Unknown names are an error — a typo silently
// filtering nothing would defeat a CI gate.
func reportFilter(suite []*analysis.Analyzer, only, skip string) (map[string]bool, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	known := make(map[string]bool, len(suite)+1)
	for _, a := range suite {
		known[a.Name] = true
	}
	known[analysis.AuditorName] = true

	parse := func(flagName, value string) (map[string]bool, error) {
		set := make(map[string]bool)
		for _, name := range strings.Split(value, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("unknown analyzer %q in %s (see -list)", name, flagName)
			}
			set[name] = true
		}
		return set, nil
	}

	switch {
	case only != "":
		return parse("-only", only)
	case skip != "":
		skipped, err := parse("-skip", skip)
		if err != nil {
			return nil, err
		}
		out := make(map[string]bool, len(known))
		for name := range known {
			out[name] = !skipped[name]
		}
		return out, nil
	default:
		return known, nil
	}
}

// coversModule reports whether dirs include every package directory of
// the module rooted at root.
func coversModule(dirs []string, root string) (bool, error) {
	loaded := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return false, err
		}
		loaded[abs] = true
	}
	all, err := analysis.PackageDirs(root)
	if err != nil {
		return false, err
	}
	for _, d := range all {
		abs, err := filepath.Abs(d)
		if err != nil {
			return false, err
		}
		if !loaded[abs] {
			return false, nil
		}
	}
	return true, nil
}

// expand resolves package patterns to package directories.
func expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, filepath.Clean(rest))
			subs, err := analysis.PackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range subs {
				add(d)
			}
			continue
		}
		add(filepath.Join(base, pat))
	}
	return dirs, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
