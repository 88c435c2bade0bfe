// Package metricname turns the OBSERVABILITY.md metric catalogue into a
// lint-enforced contract.
//
// Every metric or span registered on the default obs registry
// (obs.Default().Counter/Gauge/Histogram/StartSpan, directly or through a
// local handle of obs.Default()) must
//
//  1. pass its name as a compile-time constant — dynamic names defeat both
//     this analyzer and the catalogue, so they require an annotated
//     suppression,
//  2. be dotted snake_case ("experiments.cells.started"),
//  3. be registered at exactly one call site module-wide (the module Finish
//     hook sees every package), and
//  4. appear in the OBSERVABILITY.md catalogue, where entries may carry
//     placeholder segments in angle brackets
//     ("experiments.table.<id>.cell_seconds") and brace alternations
//     ("server.cache.{hits,misses}"). Only catalogue rows —
//     lines starting with "|" (tables) or "-" (bullet lists) — count;
//     backticked names in running prose (conventions, cross-references)
//     never vouch for a registration, so a prose example like
//     "`<package>.<what>`" cannot silently whitelist every two-segment
//     name.
//
// The reverse holds too, so the catalogue cannot outlive the code: a
// table row whose first cell is an exact (placeholder-free) name must
// name something registered — a metric, a span, or a span's
// "<span>.seconds" histogram. This check needs every package, so it runs
// only when the run covers the whole module (analysis.Module.Complete).
//
// Ad-hoc registries built with obs.NewRegistry (tests, fixtures) and the
// internal/obs implementation itself are out of scope; so are _test.go
// files, whose throwaway names never reach the catalogue.
package metricname

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"github.com/defender-game/defender/internal/analyzers/analysis"
)

// Analyzer enforces the metric-name contract against OBSERVABILITY.md.
var Analyzer = &analysis.Analyzer{
	Name:           "metricname",
	Doc:            "obs metric/span names: compile-time constant, dotted snake_case, registered once, catalogued in OBSERVABILITY.md",
	Run:            run,
	NewModuleState: func() any { return &state{names: make(map[string][]site)} },
	Finish:         finish,
}

// CatalogueFile is the catalogue's file name, resolved against the module
// root (the fixture directory under analysistest).
const CatalogueFile = "OBSERVABILITY.md"

// site is one registration call site.
type site struct {
	kind string // "Counter", "Gauge", "Histogram", "StartSpan"
	pos  token.Position
}

// state is the analyzer's module-wide memory.
type state struct {
	names map[string][]site
}

// registryMethods maps each Registry method that takes a metric or span
// name to the index of its name argument (StartSpanCtx takes the context
// first).
var registryMethods = map[string]int{
	"Counter": 0, "Gauge": 0, "Histogram": 0, "StartSpan": 0, "StartSpanCtx": 1,
}

var nameRx = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

func run(pass *analysis.Pass) error {
	if isObsPkg(pass.PkgPath) {
		return nil // the registry implementation composes names freely
	}
	st := pass.State().(*state)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		handles := defaultHandles(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryCall(pass, call, handles)
			if !ok || len(call.Args) <= registryMethods[kind] {
				return true
			}
			arg := call.Args[registryMethods[kind]]
			tv := pass.TypesInfo.Types[arg]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(), "%s name is not a compile-time constant; the catalogue cannot vouch for dynamic names (suppressible as lint:invariant(metricname))", kind)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !nameRx.MatchString(name) {
				pass.Reportf(arg.Pos(), "%s name %q is not dotted snake_case (want e.g. %q)", kind, name, "experiments.cells.started")
				return true
			}
			st.names[name] = append(st.names[name], site{kind: kind, pos: pass.Fset.Position(arg.Pos())})
			return true
		})
	}
	return nil
}

// finish runs the cross-package rules: registered-once and catalogue
// membership.
func finish(mp *analysis.ModulePass) error {
	st := mp.State().(*state)
	if len(st.names) == 0 {
		return nil
	}
	catalogue, err := loadCatalogue(filepath.Join(mp.Module.Root, CatalogueFile))
	if err != nil {
		return err
	}
	names := make([]string, 0, len(st.names))
	for name := range st.names {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := st.names[name]
		sort.Slice(sites, func(i, j int) bool {
			a, b := sites[i].pos, sites[j].pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Line < b.Line
		})
		for _, s := range sites[1:] {
			mp.Reportf(s.pos, "metric %q is already registered at %s:%d; register each name exactly once", name, sites[0].pos.Filename, sites[0].pos.Line)
		}
		if !catalogue.contains(name) {
			mp.Reportf(sites[0].pos, "metric %q is not in the %s catalogue; document it there", name, CatalogueFile)
		}
	}
	if !mp.Module.Complete {
		return nil
	}
	registered := make(map[string]bool, 2*len(st.names))
	for name, sites := range st.names {
		registered[name] = true
		for _, s := range sites {
			if s.kind == "StartSpan" || s.kind == "StartSpanCtx" {
				registered[name+".seconds"] = true
			}
		}
	}
	for _, row := range catalogue.rows {
		if !registered[row.name] {
			mp.Reportf(row.pos, "catalogue row %q names no registered metric or span; delete the row or register the name", row.name)
		}
	}
	return nil
}

// registryCall reports whether call is a name-taking Registry method on the
// default registry, and which method.
func registryCall(pass *analysis.Pass, call *ast.CallExpr, handles map[types.Object]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, named := registryMethods[sel.Sel.Name]; !named {
		return "", false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	named, ok := deref(s.Recv()).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil || !isObsPkg(obj.Pkg().Path()) {
		return "", false
	}
	if !isDefaultRegistry(pass, sel.X, handles) {
		return "", false
	}
	return sel.Sel.Name, true
}

// isDefaultRegistry reports whether recv denotes obs.Default(): the call
// itself, or a local handle assigned from it.
func isDefaultRegistry(pass *analysis.Pass, recv ast.Expr, handles map[types.Object]bool) bool {
	switch e := ast.Unparen(recv).(type) {
	case *ast.CallExpr:
		return isDefaultCall(pass, e)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		return obj != nil && handles[obj]
	}
	return false
}

// isDefaultCall reports whether e is a call of the obs package's Default.
func isDefaultCall(pass *analysis.Pass, e *ast.CallExpr) bool {
	sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Default" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && isObsPkg(fn.Pkg().Path())
}

// defaultHandles collects the objects of local variables assigned directly
// from obs.Default() anywhere in file, so `reg := obs.Default();
// reg.Gauge(...)` is checked like the chained form.
func defaultHandles(pass *analysis.Pass, file *ast.File) map[types.Object]bool {
	handles := make(map[types.Object]bool)
	mark := func(lhs, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isDefaultCall(pass, call) {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			handles[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			handles[obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return handles
}

// isObsPkg matches the observability package in both the real module and
// fixtures.
func isObsPkg(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

// catalogue is the set of permissible metric names parsed from the markdown
// catalogue: exact names plus patterns from placeholder entries, and the
// table rows that name one exact metric in their first cell.
type catalogue struct {
	exact    map[string]bool
	patterns []*regexp.Regexp
	rows     []row
}

// row is a catalogue table row naming one exact metric or span.
type row struct {
	name string
	pos  token.Position
}

// rowNameRx matches a table row's first cell when it is one backticked
// exact name.
var rowNameRx = regexp.MustCompile("^\\|\\s*`([a-z0-9_.]+)`\\s*\\|")

func (c *catalogue) contains(name string) bool {
	if c.exact[name] {
		return true
	}
	for _, rx := range c.patterns {
		if rx.MatchString(name) {
			return true
		}
	}
	return false
}

// catalogueEntryRx matches a backtick span that looks like a metric name:
// lowercase dotted segments, optionally with <placeholder> segments or
// {a,b} alternations.
var catalogueEntryRx = regexp.MustCompile("`([a-z0-9_<>{},.]*\\.[a-z0-9_<>{},.]*)`")

// loadCatalogue extracts every metric-name-shaped backtick span from the
// catalogue document's rows. Only table rows ("| …") and bullet items
// ("- …") are catalogue entries; backticked names in running prose are
// commentary and must not vouch for a registration — a conventions
// example like `<package>.<what>` would otherwise compile into a
// catch-all pattern accepting every two-segment name.
func loadCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metricname: reading catalogue: %w", err)
	}
	c := &catalogue{exact: make(map[string]bool)}
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "|") && !strings.HasPrefix(trimmed, "- ") {
			continue
		}
		if m := rowNameRx.FindStringSubmatch(trimmed); m != nil && nameRx.MatchString(m[1]) {
			c.rows = append(c.rows, row{name: m[1], pos: token.Position{Filename: path, Line: i + 1, Column: 1}})
		}
		for _, m := range catalogueEntryRx.FindAllStringSubmatch(line, -1) {
			entry := m[1]
			if strings.ContainsAny(entry, "<>{}") {
				if rx := entryPattern(entry); rx != nil {
					c.patterns = append(c.patterns, rx)
				}
				continue
			}
			if nameRx.MatchString(entry) {
				c.exact[entry] = true
			}
		}
	}
	return c, nil
}

// entryPattern compiles a placeholder entry into a full-match regexp:
// <placeholder> becomes one snake_case segment, {a,b} an alternation.
func entryPattern(entry string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for i := 0; i < len(entry); i++ {
		switch entry[i] {
		case '<':
			end := strings.IndexByte(entry[i:], '>')
			if end < 0 {
				return nil
			}
			b.WriteString(`[a-z0-9_]+`)
			i += end
		case '{':
			end := strings.IndexByte(entry[i:], '}')
			if end < 0 {
				return nil
			}
			alts := strings.Split(entry[i+1:i+end], ",")
			for j := range alts {
				alts[j] = regexp.QuoteMeta(strings.TrimSpace(alts[j]))
			}
			b.WriteString("(?:" + strings.Join(alts, "|") + ")")
			i += end
		case '.':
			b.WriteString(`\.`)
		default:
			b.WriteByte(entry[i])
		}
	}
	b.WriteString("$")
	rx, err := regexp.Compile(b.String())
	if err != nil {
		return nil
	}
	return rx
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
