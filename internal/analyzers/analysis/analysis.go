// Package analysis is a self-contained, dependency-free re-implementation of
// the core of golang.org/x/tools/go/analysis: just enough of the Analyzer /
// Pass / Diagnostic contract to host the project's invariant checkers. The
// build environment deliberately carries no third-party modules, so the repo
// vendors the *idea* of the framework (same shape, same fixture conventions)
// on top of the standard library's go/ast, go/parser and go/types only.
//
// Since PR 6 the framework is a whole-module engine: a Module run loads every
// package through one Loader (one shared type-check per dependency), gives
// each analyzer an optional module-wide state plus a Finish hook that runs
// after the last package (cross-package invariants like metricname's
// registered-once rule), applies the shared suppression grammar
//
//	// lint:invariant(<analyzer>): <reason>
//
// uniformly to every analyzer's diagnostics, and audits the suppressions
// themselves: a comment that fails to parse, names an unknown analyzer, or no
// longer masks any finding is itself a diagnostic (analyzer "suppression").
// Diagnostics are ordered deterministically across packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus the dependency and fact
// machinery, which the project's checkers do not need.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppressions, and
	// -only/-skip filters.
	Name string
	// Doc is a one-paragraph description; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// NewModuleState, if non-nil, builds the analyzer's module-wide state
	// before the first package is visited. Every Pass of the run (and the
	// final ModulePass) sees the same value via State.
	NewModuleState func() any
	// Finish, if non-nil, runs once after every package has been visited —
	// the hook for cross-package invariants accumulated in the module state.
	Finish func(*ModulePass) error
}

// Module is one whole-module analyzer run: the shared position table, the
// root directory diagnostics are reported relative to, and the per-analyzer
// module-wide state.
type Module struct {
	Fset *token.FileSet
	// Root is the module root (the go.mod directory) for real runs, or the
	// fixture package directory under analysistest. Analyzers that consult
	// repository files (metricname's OBSERVABILITY.md catalogue) resolve
	// them against Root.
	Root string
	// IncludeTests records whether the driver loaded _test.go files into
	// the run, for analyzers that want to report it in their messages.
	IncludeTests bool
	// Complete records that the run loaded every package of the module,
	// so a Finish hook may treat "no package does X" as a fact
	// (metricname's stale catalogue rows) rather than an artifact of a
	// partial run.
	Complete bool

	state map[string]any
}

// NewModule returns a module context rooted at root, sharing fset with the
// loader that produced the packages.
func NewModule(fset *token.FileSet, root string) *Module {
	return &Module{Fset: fset, Root: root, state: make(map[string]any)}
}

// State returns a's module-wide state, building it on first use.
func (m *Module) State(a *Analyzer) any {
	if m.state == nil {
		m.state = make(map[string]any)
	}
	s, ok := m.state[a.Name]
	if !ok && a.NewModuleState != nil {
		s = a.NewModuleState()
		m.state[a.Name] = s
	}
	return s
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path as the driver sees it (may differ from Pkg.Path in fixtures)
	TypesInfo *types.Info
	Module    *Module

	diags *[]Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// State returns the analyzer's module-wide state (see Analyzer.NewModuleState).
func (p *Pass) State() any {
	if p.Module == nil {
		return nil
	}
	return p.Module.State(p.Analyzer)
}

// InTestFile reports whether pos falls in a _test.go file. Test files enter
// a run only under the driver's -include-tests; analyzers whose invariant is
// production-only (floateq's tolerance rule, metricname's catalogue) keep
// exempting them explicitly with this predicate.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ModulePass is the context of one analyzer's Finish hook.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diags *[]Diagnostic
}

// State returns the analyzer's module-wide state.
func (mp *ModulePass) State() any { return mp.Module.State(mp.Analyzer) }

// Reportf records a diagnostic at an already-resolved position (Finish runs
// after the AST walks, so callers carry token.Position in their state).
func (mp *ModulePass) Reportf(pos token.Position, format string, args ...interface{}) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Analyzer: mp.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunModule applies every analyzer to every package, runs the Finish hooks,
// filters suppressed diagnostics, audits the suppressions, and returns the
// surviving diagnostics in deterministic cross-package order. The packages
// must share m.Fset.
func RunModule(m *Module, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	supps := collectSuppressions(m.Fset, pkgs)

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				Module:    m,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Module: m, diags: &diags}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
	}

	diags = applySuppressions(diags, supps)
	diags = append(diags, auditSuppressions(supps, analyzers)...)

	sortDiagnostics(diags)
	return diags, nil
}

// Run applies each analyzer to a single package — the pre-module entry point,
// kept for one-package callers. Suppressions in the package are honored and
// audited exactly as in a module run.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	m := NewModule(pkg.Fset, pkg.Dir)
	return RunModule(m, []*Package{pkg}, analyzers)
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer, and
// finally message, so whole-module output is reproducible run to run.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
