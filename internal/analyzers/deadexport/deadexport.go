// Package deadexport reports exported functions and methods of internal/
// packages that nothing outside their own file refers to.
//
// An export under internal/ can only be reached from inside the module, so
// the module is its whole audience. A function or method declared in a
// non-test file is live when
//
//  1. a non-test file other than its own refers to it, in any package of
//     the run (cmd/, examples/, the root package, perfbench/), or
//  2. a _test.go file of a different package refers to it — a shared
//     fixture such as a graph constructor other packages' tests build on.
//
// References from the declaring package's own _test.go files do not count:
// an export only its own tests reach is a test helper living in production
// code. A method that implements an interface method is exempt, because a
// call through the interface never names it.
//
// Declarations and uses are matched by (package path, receiver, name), not
// by object identity: a test-inclusive run type-checks each package's test
// variant separately, so one function has several objects.
//
// "Nothing refers to it" is a fact only about a complete, test-inclusive
// run (analysis.Module.Complete and IncludeTests), so other runs report
// nothing.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/defender-game/defender/internal/analyzers/analysis"
)

// Analyzer reports exported internal/ functions and methods that no other
// file refers to.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc:  "exported internal/ functions and methods must be referenced outside their own file (own-package tests do not count); delete, unexport, or move into _test.go",
	Run:  run,
	NewModuleState: func() any {
		return &state{
			decls:    make(map[key]*decl),
			refs:     make(map[key]*refs),
			ifaces:   make(map[string][]string),
			imported: make(map[*types.Package]bool),
		}
	},
	Finish: finish,
}

// key names a function or method independently of any type-check variant.
type key struct {
	pkg, recv, name string
}

// decl is one exported declaration in a non-test internal/ file.
type decl struct {
	pos token.Position
	// methods is the receiver's pointer method set as "Name signature"
	// strings; nil for plain functions.
	methods map[string]bool
	sig     string // "Name signature" of the method itself
}

// refs summarizes where a function is referenced.
type refs struct {
	files    map[string]bool // non-test files
	ownTests bool            // the declaring package's _test.go files
	tests    bool            // another package's _test.go files
}

// state is the analyzer's module-wide memory.
type state struct {
	decls map[key]*decl
	refs  map[key]*refs
	// ifaces holds every interface with methods seen in the run, keyed by
	// its sorted method list.
	ifaces   map[string][]string
	imported map[*types.Package]bool
}

func run(pass *analysis.Pass) error {
	st := pass.State().(*state)
	collectInterfaces(pass, st)
	if inInternal(pass.Pkg.Path()) {
		for _, file := range pass.Files {
			if pass.InTestFile(file.Pos()) {
				continue
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				k := keyOf(fn)
				if _, seen := st.decls[k]; seen {
					continue
				}
				dc := &decl{pos: pass.Fset.Position(fd.Name.Pos())}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					dc.sig = methodString(fn)
					dc.methods = methodSet(recv.Type())
				}
				st.decls[k] = dc
			}
		}
	}
	ownPkg := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !fn.Exported() || !inInternal(fn.Pkg().Path()) {
			continue
		}
		k := keyOf(fn)
		r := st.refs[k]
		if r == nil {
			r = &refs{files: make(map[string]bool)}
			st.refs[k] = r
		}
		switch {
		case !pass.InTestFile(id.Pos()):
			r.files[pass.Fset.Position(id.Pos()).Filename] = true
		case ownPkg == fn.Pkg().Path():
			r.ownTests = true
		default:
			r.tests = true
		}
	}
	return nil
}

func finish(mp *analysis.ModulePass) error {
	if !mp.Module.Complete || !mp.Module.IncludeTests {
		return nil
	}
	st := mp.State().(*state)
	keys := make([]key, 0, len(st.decls))
	for k := range st.decls {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := st.decls[keys[i]].pos, st.decls[keys[j]].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, k := range keys {
		d := st.decls[k]
		r := st.refs[k]
		if r == nil {
			r = &refs{}
		}
		ownFile := false
		live := r.tests
		for f := range r.files {
			if f == d.pos.Filename {
				ownFile = true
			} else {
				live = true
			}
		}
		if live || (d.methods != nil && st.implementsInterface(d)) {
			continue
		}
		name := k.name
		if k.recv != "" {
			name = k.recv + "." + k.name
		}
		switch {
		case ownFile:
			mp.Reportf(d.pos, "exported %s is referenced only in its own file; unexport it", name)
		case r.ownTests:
			mp.Reportf(d.pos, "exported %s is referenced only by its own package's tests; move it into a _test.go file or delete it", name)
		default:
			mp.Reportf(d.pos, "exported %s is never referenced; delete it", name)
		}
	}
	return nil
}

// implementsInterface reports whether d's receiver implements some
// interface of the run that has d's method.
func (st *state) implementsInterface(d *decl) bool {
	for _, methods := range st.ifaces {
		has, all := false, true
		for _, m := range methods {
			has = has || m == d.sig
			all = all && d.methods[m]
		}
		if has && all {
			return true
		}
	}
	return false
}

// collectInterfaces records the interfaces visible to pass: the package's
// own and its transitive imports' package-level interfaces, every
// interface-typed expression, and error.
func collectInterfaces(pass *analysis.Pass, st *state) {
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		methods := make([]string, it.NumMethods())
		for i := range methods {
			methods[i] = methodString(it.Method(i))
		}
		sort.Strings(methods)
		st.ifaces[strings.Join(methods, ";")] = methods
	}
	add(types.Universe.Lookup("error").Type())
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if st.imported[p] {
			return
		}
		st.imported[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pass.Pkg)
	for _, tv := range pass.TypesInfo.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
}

// methodSet returns the "Name signature" strings of the pointer method set
// of recv's base type.
func methodSet(recv types.Type) map[string]bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(recv))
	out := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		out[methodString(ms.At(i).Obj().(*types.Func))] = true
	}
	return out
}

// methodString renders a method as its name plus its receiver-free
// signature, parameter names dropped and packages spelled by path, so
// strings from different type-check variants compare equal.
func methodString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	variadic := ""
	if sig.Variadic() {
		variadic = "..."
	}
	return fn.Name() + tuple(sig.Params()) + variadic + tuple(sig.Results())
}

// keyOf returns fn's variant-independent identity.
func keyOf(fn *types.Func) key {
	k := key{pkg: fn.Pkg().Path(), name: fn.Name()}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k.recv = n.Obj().Name()
		}
	}
	return k
}

// inInternal reports whether path names a package inside an internal/ tree.
func inInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
