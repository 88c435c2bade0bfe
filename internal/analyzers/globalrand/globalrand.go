// Package globalrand flags use of the shared top-level math/rand source in
// non-test code.
//
// Every experiment in this repo must be reproducible from a single seed
// (EXPERIMENTS.md); randomness therefore flows through an injected
// *rand.Rand (see graph.Generator and dynamics.RegretMatching). Calls
// like rand.Intn or rand.Float64 draw from the process-global source, whose
// state is shared across goroutines and cannot be replayed, so the analyzer
// flags any math/rand package-level call except the constructors (New,
// NewSource, NewZipf) that build injectable sources.
package globalrand

import (
	"go/ast"
	"go/types"

	"github.com/defender-game/defender/internal/analyzers/analysis"
)

// Analyzer flags top-level math/rand calls outside tests.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc:  "flag top-level math/rand calls in non-test code; inject a *rand.Rand instead",
	Run:  run,
}

// constructors build explicit sources or generators and carry no global
// state; everything else at package level proxies the shared source.
var constructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 equivalents, should the repo migrate.
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || constructors[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			if p := pkgName.Imported().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			pass.Reportf(call.Pos(), "rand.%s uses the global math/rand source; thread a seeded *rand.Rand through the caller", sel.Sel.Name)
			return true
		})
	}
	return nil
}
