// Package ddrand forbids math/rand outside internal/rng. Replay
// equality requires every random stream to be derived from the run
// seed through rng.SubSeed (order-independent) or Source.Split; the
// global math/rand generator is seeded from runtime entropy and shared
// across goroutines, and even a locally constructed rand.New(...)
// bypasses that substream-derivation discipline. internal/rng is the
// single owner of raw generator mechanics.
package ddrand

import (
	"go/ast"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/scope"
)

var Analyzer = &analysis.Analyzer{
	Name: "ddrand",
	Doc:  "forbid math/rand outside internal/rng; derive streams with rng.SubSeed / rng.Source",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == scope.RNG {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"math/rand: %s.%s outside internal/rng; derive a deterministic stream with rng.SubSeed / rng.New",
					obj.Pkg().Path(), obj.Name())
			}
			return true
		})
	}
	return nil, nil
}
