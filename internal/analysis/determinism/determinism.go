// Package determinism enforces the seed-reproducibility invariant behind
// the engine's bit-exactness oracles (the PR 4/5 parity and
// staged≡continuous assertions): every random draw must come from a seeded
// stream, seeds must derive from the run's root seed rather than the
// clock, and map iteration order must never reach float accumulation or
// slice ordering in the numeric packages.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"sizeless/internal/analysis"
)

// Analyzer flags seedless randomness, clock-derived seeds, map-order
// dependent numeric results, and scheduling-order dependent float
// accumulation in parallel kernel code.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid global math/rand draws, time.Now-derived seeds, map-iteration " +
		"order feeding float accumulators or slice appends in the numeric packages, " +
		"and float accumulation into shared variables inside pool worker closures in " +
		"internal/nn; seed-reproducibility is what keeps the parity oracles bit-exact",
	Run: run,
}

// seedlessGlobals are the math/rand (and v2) package-level functions that
// draw from the shared, unseeded source. Constructors (New, NewSource,
// NewPCG, ...) and the Rand/Source types stay legal — xrand wraps them.
var seedlessGlobals = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32N": true, "Int64N": true, "UintN": true,
	"Uint32N": true, "Uint64N": true, "N": true,
}

// seedSinks are constructor names whose argument is a seed; feeding them
// anything derived from time.Now defeats reproducibility. Matched by name
// so fixtures with stand-in packages exercise the rule too.
var seedSinks = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "Seed": true,
}

// numericScoped reports whether the map-order rule applies: the packages
// whose float pipelines feed the bit-exact results. internal/loadgen is in
// scope because schedule sampling must be bit-identical per seed — the
// scenario lab's byte-for-byte reproducibility rests on it. internal/dag
// is in scope because the application planner promises identical plans per
// seed at any worker count: a latency or cost sum assembled in map order
// would silently break plan reproducibility.
func numericScoped(path string) bool {
	for _, seg := range []string{"internal/nn", "internal/core", "internal/stats", "internal/xrand", "internal/loadgen", "internal/dag"} {
		if analysis.PathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.IsLibraryPackage(pass.Pkg) {
		return nil, nil
	}
	info := pass.TypesInfo
	mapOrder := numericScoped(pass.Path())
	parallelAccum := analysis.PathHasSegment(pass.Path(), "internal/nn")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
				if parallelAccum {
					checkParallelAccum(pass, n)
				}
			case *ast.RangeStmt:
				if mapOrder {
					if t := info.TypeOf(n.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							checkMapRange(pass, n)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkParallelAccum flags float compound assignment into variables
// declared outside a worker closure passed to pool.Run:
// workers race on the accumulator, and even under a lock the accumulation
// order would follow goroutine scheduling — float addition is not
// associative, so the result changes run to run. Matched by package name
// (`pool`) so fixtures with stand-in packages exercise the rule.
func checkParallelAccum(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "pool" {
		return
	}
	if fn.Name() != "Run" {
		return
	}
	info := pass.TypesInfo
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch asg.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			lhs := asg.Lhs[0]
			t := info.TypeOf(lhs)
			if t == nil {
				return true
			}
			if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
				return true
			}
			root := analysis.RootIdent(lhs)
			if root == nil {
				return true
			}
			obj := info.ObjectOf(root)
			if obj == nil || obj.Pos() == token.NoPos {
				return true
			}
			if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
				// Closure-local accumulator (including the worker-index
				// parameter pattern): each worker owns its own value.
				return true
			}
			pass.Reportf(asg.Pos(),
				"float accumulation into %s shared across pool workers follows goroutine scheduling order (float addition is not associative); accumulate into a per-worker slab and reduce in a fixed order", root.Name)
			return true
		})
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil && seedlessGlobals[fn.Name()] {
		pass.Reportf(call.Pos(), "seedless global %s.%s breaks bit-reproducibility; draw from a seeded *xrand.Stream", pkg.Path(), fn.Name())
		// A banned global never doubles as a seed sink; done.
		return
	}
	if !seedSinks[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && analysis.CalleeIs(pass.TypesInfo, c, "time.Now") {
				found = true
				return false
			}
			return true
		})
		if found {
			pass.Reportf(call.Pos(), "time.Now-derived seed passed to %s defeats seed-reproducibility; derive seeds from the run's root seed (xrand convention)", fn.Name())
			return
		}
	}
}

// checkMapRange flags order-sensitive sinks inside a range-over-map body:
// float compound assignment into an accumulator declared outside the loop,
// and appends to a slice declared outside the loop.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	outside := func(e ast.Expr) (string, bool) {
		root := analysis.RootIdent(e)
		if root == nil {
			return "", false
		}
		obj := info.ObjectOf(root)
		if obj == nil || obj.Pos() == token.NoPos {
			return "", false
		}
		// Declared outside the loop body: the accumulated value survives
		// the loop, so iteration order reaches the result.
		if obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End() {
			return root.Name, true
		}
		return "", false
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := asg.Lhs[0]
			t := info.TypeOf(lhs)
			if t == nil {
				return true
			}
			if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
				return true
			}
			if name, ok := outside(lhs); ok {
				pass.Reportf(asg.Pos(), "float accumulation into %s in map-iteration order is nondeterministic (float addition is not associative); iterate a sorted key slice", name)
			}
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range asg.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, ok := info.ObjectOf(id).(*types.Builtin); !ok {
					continue
				}
				if i >= len(asg.Lhs) {
					continue
				}
				if name, ok := outside(asg.Lhs[i]); ok {
					pass.Reportf(asg.Pos(), "append to %s in map-iteration order is nondeterministic; collect keys, sort, then iterate", name)
				}
			}
		}
		return true
	})
}
