package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// The shared suppression grammar. A comment line whose text (after the
// comment markers) begins with the marker suppresses findings of exactly one
// analyzer, and must carry a reason:
//
//	// lint:invariant(<analyzer>): <reason>
//
// The suppression masks diagnostics of that analyzer on any line of its
// comment group plus the line immediately after the group, so both the
// same-line trailing form and a (possibly multi-line) justification ending
// just above the flagged statement work. Suppressions are audited: malformed
// comments, unknown analyzer names, and stale suppressions (masking nothing)
// are reported under the pseudo-analyzer name "suppression".
const marker = "lint:invariant"

// SuppressionDoc is the one-line grammar reminder quoted in diagnostics.
const SuppressionDoc = "// lint:invariant(<analyzer>): <reason>"

// AuditorName is the analyzer name the suppression auditor reports under;
// drivers treat it like a twelfth analyzer for -only/-skip and summaries.
const AuditorName = "suppression"

// AuditorDoc describes the auditor in driver listings.
const AuditorDoc = "audit lint:invariant suppressions: malformed, unknown analyzer, or stale (masking no finding)"

var suppRx = regexp.MustCompile(`^lint:invariant\(([A-Za-z0-9_]+)\)\s*:\s*(.+)$`)

// suppression is one parsed lint:invariant comment.
type suppression struct {
	pos       token.Position // where the marker line starts
	analyzer  string         // "" when malformed
	reason    string
	malformed bool
	startLine int // first masked line
	endLine   int // last masked line (comment group end + 1)
	used      bool
}

// collectSuppressions scans every comment of every file once. Files shared
// between package variants (a package and its test-augmented sibling) are
// deduplicated by filename.
func collectSuppressions(fset *token.FileSet, pkgs []*Package) []*suppression {
	var out []*suppression
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			name := fset.Position(file.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, fileSuppressions(fset, file)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// fileSuppressions parses the suppressions of one file. Only lines that
// *begin* with the marker count; prose that merely mentions it (analyzer
// docs, error messages) is ignored.
func fileSuppressions(fset *token.FileSet, file *ast.File) []*suppression {
	var out []*suppression
	for _, group := range file.Comments {
		groupStart := fset.Position(group.Pos()).Line
		groupEnd := fset.Position(group.End()).Line
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "/*") {
				text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
			}
			if !strings.HasPrefix(text, marker) {
				continue
			}
			s := &suppression{
				pos:       fset.Position(c.Pos()),
				startLine: groupStart,
				endLine:   groupEnd + 1,
			}
			if m := suppRx.FindStringSubmatch(text); m != nil {
				s.analyzer, s.reason = m[1], strings.TrimSpace(m[2])
			} else {
				s.malformed = true
			}
			out = append(out, s)
		}
	}
	return out
}

// applySuppressions removes diagnostics masked by a well-formed suppression
// naming their analyzer, marking each suppression that fired as used.
func applySuppressions(diags []Diagnostic, supps []*suppression) []Diagnostic {
	if len(supps) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		masked := false
		for _, s := range supps {
			if s.malformed || s.analyzer != d.Analyzer {
				continue
			}
			if s.pos.Filename == d.Pos.Filename && d.Pos.Line >= s.startLine && d.Pos.Line <= s.endLine {
				s.used = true
				masked = true
			}
		}
		if !masked {
			kept = append(kept, d)
		}
	}
	return kept
}

// auditSuppressions turns suppression defects into diagnostics. Staleness is
// only judged for analyzers that actually ran: a suppression for an analyzer
// outside the suite is unverifiable, not stale.
func auditSuppressions(supps []*suppression, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	report := func(s *suppression, format string, args ...interface{}) {
		out = append(out, Diagnostic{
			Analyzer: AuditorName,
			Pos:      s.pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, s := range supps {
		switch {
		case s.malformed:
			report(s, "malformed suppression; the grammar is %s", SuppressionDoc)
		case !ran[s.analyzer]:
			report(s, "suppression names unknown analyzer %q", s.analyzer)
		case !s.used:
			report(s, "stale suppression: no %s finding on lines %d-%d; delete it or fix the reason", s.analyzer, s.startLine, s.endLine)
		}
	}
	return out
}
