package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// restrictedPkgs are the simulation packages where every bit of entropy and
// every iteration order must be reproducible: the experiment tables are
// regenerated from these, so a wall-clock read or a map-order dependence
// silently corrupts results. The only sanctioned entropy source is
// shadow/internal/rng (seeded, deterministic).
var restrictedPkgs = map[string]bool{
	"shadow/internal/sim":      true,
	"shadow/internal/dram":     true,
	"shadow/internal/memctrl":  true,
	"shadow/internal/shadow":   true,
	"shadow/internal/mitigate": true,
	"shadow/internal/trace":    true,
	"shadow/internal/exp":      true,
	// Every ACT charges its victims through hammer.Subarray.Activate, so
	// entropy there reaches a run's flips.
	"shadow/internal/hammer": true,
	// The observability layer records from inside the simulation loop, so it
	// is held to the same standard: instruments are keyed to simulated ticks
	// and nothing in it reads the wall clock.
	"shadow/internal/obs": true,
	// The flight recorder records from the Recorder's emit path and its
	// watchdogs run at the progress cadence; both must stay reproducible so
	// same-seed runs produce byte-identical flight dumps.
	"shadow/internal/obs/flight": true,
	// The span tracker stamps request milestones and attributes stall causes
	// on the memory controller's critical path; a wall-clock read or an
	// order-dependent fold there breaks the bit-identical-with-probes
	// guarantee and the stall-conservation invariant.
	"shadow/internal/obs/span": true,
	// The fleet aggregator merges per-worker metrics into exposition and
	// JSON payloads that must render byte-identically from identical state
	// (the dashboard is diffed in tests): the collector's wall clock is
	// injected from the cmd layer and every map fold is sorted.
	"shadow/internal/obs/fleet": true,
}

// wallClockFuncs are time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism flags nondeterminism sources inside the simulation packages:
// wall-clock reads (time.Now/Since/Until), any use of global math/rand
// (including rand.Seed), range statements over maps whose body is
// order-sensitive — appending to a slice, assigning to variables declared
// outside the loop, or returning early — and selects over two or more
// channel cases, where the runtime picks among the ready cases
// pseudo-randomly. The scan is per package: a helper in an unrestricted
// package is not followed. Whole-simulation determinism is checked
// dynamically by sim's FuzzSimulation, which runs every generated
// configuration twice and compares the command hashes.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, math/rand, order-sensitive map iteration and multi-ready selects " +
		"in the simulation packages (internal/{sim,dram,memctrl,shadow,mitigate,trace,exp,hammer,obs,obs/span,obs/flight,obs/fleet})",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !restrictedPkgs[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a simulation package; use shadow/internal/rng (seeded, deterministic)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := pass.Info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if _, isFn := obj.(*types.Func); isFn && wallClockFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "wall-clock read time.%s in a simulation package; simulated time must come from timing.Tick", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					what := "use of " + obj.Pkg().Path() + "." + obj.Name()
					if obj.Name() == "Seed" {
						what = "seeding the global math/rand source"
					}
					pass.Reportf(n.Pos(), "%s in a simulation package; use shadow/internal/rng (seeded, deterministic)", what)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.SelectStmt:
				if cases := channelCases(n); cases > 1 {
					pass.Reportf(n.Pos(), "select over %d channel cases in a simulation package: the runtime picks among ready cases pseudo-randomly; restructure to a deterministic priority order or waive with the reason the choice cannot affect results", cases)
				}
			}
			return true
		})
	}
}

// channelCases returns the number of channel communication clauses of a
// select (default clauses excluded); two or more make the select's choice
// scheduler-dependent when several are ready.
func channelCases(sel *ast.SelectStmt) int {
	cases := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			cases++
		}
	}
	return cases
}

// checkMapRange reports a range over a map whose body makes the result
// depend on iteration order.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "map iteration order is nondeterministic: %s inside range over %s; iterate sorted keys or restructure", what, typeString(t))
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			report(n.Pos(), "early return")
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				// New variables are loop-local; their RHS is handled when used.
				return true
			}
			for _, lhs := range n.Lhs {
				if what, pos, bad := orderSensitiveLHS(pass.Info, rng, lhs); bad {
					report(pos, what)
				}
			}
		case *ast.IncDecStmt:
			if what, pos, bad := orderSensitiveLHS(pass.Info, rng, n.X); bad {
				report(pos, what)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if obj, ok := pass.Info.Uses[id]; ok {
					if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
						report(n.Pos(), "append")
					}
				}
			}
		}
		return true
	})
}

// orderSensitiveLHS decides whether assigning through lhs inside the map
// range makes the result order-dependent. Writes to plain variables or
// struct fields declared outside the loop are order-sensitive (reductions,
// last-writer-wins); writes keyed by an index expression (out[k] = v) are
// per-key and therefore order-independent, so they pass.
func orderSensitiveLHS(info *types.Info, rng *ast.RangeStmt, lhs ast.Expr) (string, token.Pos, bool) {
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return "", 0, false
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil || !declaredOutside(obj, rng) {
			return "", 0, false
		}
		return "assignment to outer variable " + e.Name, e.Pos(), true
	case *ast.SelectorExpr:
		root := rootIdent(e.X)
		if root == nil {
			return "", 0, false
		}
		obj := info.Uses[root]
		if obj == nil || !declaredOutside(obj, rng) {
			return "", 0, false
		}
		return "assignment to field " + root.Name + "." + e.Sel.Name + " of outer value", e.Pos(), true
	case *ast.IndexExpr:
		// Keyed writes (m[k] = v) are order-independent.
		return "", 0, false
	case *ast.StarExpr:
		root := rootIdent(e.X)
		if root == nil {
			return "", 0, false
		}
		obj := info.Uses[root]
		if obj == nil || !declaredOutside(obj, rng) {
			return "", 0, false
		}
		return "assignment through outer pointer " + root.Name, e.Pos(), true
	}
	return "", 0, false
}

func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func typeString(t types.Type) string {
	s := t.String()
	// Strip module path noise for readable diagnostics.
	s = strings.ReplaceAll(s, "shadow/internal/", "")
	return s
}
