package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"shadow/internal/analysis/callgraph"
)

// allocRoots registers the hot-path entry points whose reachable call trees
// must be allocation-free: the perf contract of the event-driven scheduler
// (PR 5) is 0 allocs/op in steady state, measured dynamically by
// internal/sim/alloc_test.go and proved statically here. Matching is by
// declaring-package name plus receiver and method, restricted to
// module-local packages, so fixtures can masquerade with a package clause.
var allocRoots = map[string]string{
	// The simulator event loop: issue, step, advance.
	"sim.runner.tick": "the per-tick simulator event loop",
	// The memory controller's scheduling step, called from tick until quiescent.
	"memctrl.Controller.Step": "the controller scheduling step",
	// The tick-skipping event wheel (PR 10). All of these already sit inside
	// tick's call tree, but they are registered as roots of their own so the
	// zero-alloc contract names them directly and survives refactors of the
	// tick dispatch.
	"sim.runner.advance":               "the event-wheel time advance",
	"sim.runner.park":                  "the event-wheel queue-full park",
	"memctrl.Controller.NextReadyAt":   "the channel readiness lower bound",
	"dram.Device.NextDeadline":         "the device deadline scan",
	"dram.Bank.NextDeadline":           "the bank deadline probe",
	"mitigate.BlockHammer.NextEventAt": "the BlockHammer epoch-boundary bound",
	// The runner's OnComplete closure, which Step reaches only through a
	// func value the call graph does not follow.
	"sim.runner.rearm":       "the event-wheel re-arm on a bank dequeue",
	"sim.runner.lowerCoreAt": "the event-wheel key lowering on a completion",
	// The flight recorder's ring write, teed from Recorder.emit on every
	// DRAM command in the always-on telemetry configuration.
	"flight.Ring.Record": "the flight-ring event write",
	// The span tracker's request-milestone and stall-attribution calls, all
	// on the controller's critical path.
	"span.Tracker.Start":        "span request start",
	"span.Tracker.Complete":     "span request completion",
	"span.Tracker.SetCause":     "span stall-cause update",
	"span.Tracker.SetAllCauses": "span stall-cause broadcast",
	"span.Tracker.NoteBusy":     "span busy-window note",
	"span.Tracker.NoteAllBusy":  "span busy-window broadcast",
	"span.Tracker.BusyCause":    "span busy-cause lookup",
}

// allocSafeExternalPkgs are packages outside the analyzed tree whose
// functions are known not to allocate on any path the hot tree uses.
var allocSafeExternalPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocSafeExternalFuncs are individually whitelisted external functions
// (by types.Func.FullName) known not to allocate in steady state.
var allocSafeExternalFuncs = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.Mutex).TryLock":   true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
}

// allocFacts is the Prepare result: the module call graph plus the
// hot-reachable function set with BFS parents for blame chains.
type allocFacts struct {
	graph *callgraph.Graph
	// hot maps every function reachable from a registered root to its BFS
	// parent (nil for the roots themselves).
	hot map[*callgraph.Node]*callgraph.Node
	// rootOf maps each hot node to the root whose tree first reached it.
	rootOf map[*callgraph.Node]*callgraph.Node
}

// AllocFlow statically pins the zero-allocation contract of the scheduler
// hot path: every function reachable from a registered root must be free of
// constructs that allocate (or that the analyzer cannot prove allocation-
// free). The dynamic side of the same contract is
// internal/sim/alloc_test.go, which measures 0 allocs/op on warmed-up
// runs; allocflow proves it for every configuration and gives file:line
// blame, at the cost of flagging warm-slab and cold-path code that needs a
// waiver explaining why the dynamic gate stays green.
var AllocFlow = &Analyzer{
	Name: "allocflow",
	Doc: "require the call trees of the hot-path roots (sim.runner.tick, memctrl.Controller.Step, " +
		"flight.Ring.Record, span.Tracker hot calls) to be allocation-free: " +
		"flags make/new, append, map writes, string concatenation/conversion, escaping composite " +
		"literals, interface boxing, closure captures, variadic and fmt calls, go statements, and " +
		"calls the interprocedural analysis cannot see through; constructs inside panic(...) " +
		"arguments are exempt, since a panicking run has already left the steady-state contract",
	Prepare: prepareAllocFlow,
	Run:     runAllocFlow,
}

func prepareAllocFlow(m *Module) any {
	g := m.CallGraph()
	facts := &allocFacts{
		graph:  g,
		hot:    map[*callgraph.Node]*callgraph.Node{},
		rootOf: map[*callgraph.Node]*callgraph.Node{},
	}
	// Roots in sorted node order, then BFS: deterministic parents.
	var frontier []*callgraph.Node
	for _, n := range g.Nodes() {
		if n.Func == nil || n.Body == nil {
			continue
		}
		if short, ok := shortFuncName(n.Func); ok && allocRoots[short] != "" {
			facts.hot[n] = nil
			facts.rootOf[n] = n
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		var next []*callgraph.Node
		for _, n := range frontier {
			for _, e := range n.Out {
				callee := e.Callee
				// Unknown and body-less external callees are handled at the
				// call site (runAllocFlow); only functions whose source we
				// have join the hot set.
				if callee.Body == nil {
					continue
				}
				if _, seen := facts.hot[callee]; seen {
					continue
				}
				facts.hot[callee] = n
				facts.rootOf[callee] = facts.rootOf[n]
				next = append(next, callee)
			}
		}
		frontier = next
	}
	return facts
}

// shortFuncName renders a module-local function as pkgName.Func or
// pkgName.Recv.Method; ok is false for functions outside the shadow module.
func shortFuncName(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), "shadow/") {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		return pkg.Name() + "." + named.Obj().Name() + "." + fn.Name(), true
	}
	return pkg.Name() + "." + fn.Name(), true
}

// nodeLabel renders a node for blame chains: the short name when available,
// otherwise the ID with module-path noise stripped.
func nodeLabel(n *callgraph.Node) string {
	if n.Func != nil {
		if short, ok := shortFuncName(n.Func); ok {
			return short
		}
		return n.Func.FullName()
	}
	return strings.ReplaceAll(n.ID, "shadow/internal/", "")
}

// hotChain renders "root → … → fn" for a hot node, capped so messages stay
// readable on deep trees.
func (f *allocFacts) hotChain(n *callgraph.Node) string {
	var rev []string
	for cur := n; cur != nil; cur = f.hot[cur] {
		rev = append(rev, nodeLabel(cur))
		if f.hot[cur] == nil {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) > 5 {
		rev = append(rev[:2], append([]string{"…"}, rev[len(rev)-2:]...)...)
	}
	return strings.Join(rev, " → ")
}

func runAllocFlow(pass *Pass) {
	facts, ok := pass.Facts.(*allocFacts)
	if !ok {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if node := facts.graph.NodeFor(n); node != nil {
					if _, hot := facts.hot[node]; hot {
						scanHotBody(pass, facts, node)
					}
				}
				// Descend either way: nested literals are their own nodes
				// and are scanned when they are hot themselves.
				return true
			}
			return true
		})
	}
}

// scanHotBody reports every allocation-relevant construct directly in one
// hot function's body. Nested function literals are their own nodes: their
// creation is checked here (closure capture), their bodies when they are
// hot themselves — which EdgeLit reachability guarantees whenever the
// literal can run as part of the hot call.
func scanHotBody(pass *Pass, facts *allocFacts, node *callgraph.Node) {
	chain := facts.hotChain(node)
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		pass.Reportf(pos, "%s on the allocation-free hot path (%s)", msg, chain)
	}
	body := node.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != node.Decl {
				checkClosureCapture(pass, node, n, report)
				return false // the literal body belongs to its own node
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement starts a goroutine (stack allocation)")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "composite literal taken by address may escape to the heap")
					// Still scan inner expressions (nested literals, calls).
				}
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, report)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.Info.TypeOf(n.X)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.Info.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string concatenation allocates")
			}
			for _, lhs := range n.Lhs {
				checkMapWrite(pass, lhs, report)
			}
		case *ast.IncDecStmt:
			checkMapWrite(pass, n.X, report)
		case *ast.CallExpr:
			if isPanicCall(pass, n) {
				// A panicking execution has already abandoned the steady-
				// state contract: the message formatting inside panic(...)
				// never runs on a green run, so its allocations are exempt.
				return false
			}
			checkHotCall(pass, facts, n, report)
		}
		return true
	})
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// checkCompositeLit flags slice and map composite literals (their backing
// storage is heap-allocated unless escape analysis can stack them, which
// the hot path must not rely on). Value struct and array literals are
// stack copies and pass; the escaping &T{...} form is handled at the
// UnaryExpr.
func checkCompositeLit(pass *Pass, lit *ast.CompositeLit, report func(token.Pos, string, ...any)) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		report(lit.Pos(), "slice literal allocates its backing array")
	case *types.Map:
		report(lit.Pos(), "map literal allocates")
	}
}

// checkMapWrite flags assignments through a map index: a map write may
// trigger bucket growth, and maps have no place on the hot path at all.
func checkMapWrite(pass *Pass, lhs ast.Expr, report func(token.Pos, string, ...any)) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	t := pass.Info.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		report(idx.Pos(), "map write may grow the map")
	}
}

// checkHotCall classifies one call on the hot path: builtins that allocate,
// allocating string conversions, fmt calls, unresolvable or external
// callees, variadic argument slices, and interface boxing of arguments.
func checkHotCall(pass *Pass, facts *allocFacts, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	fun := ast.Unparen(call.Fun)
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	// Conversions: string(bytes), []byte(s), []rune(s), string(r) all copy.
	if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.Info.TypeOf(call.Args[0])
		if allocatingConversion(from, to) {
			report(call.Pos(), "string conversion %s allocates", types.ExprString(fun))
		}
		return
	}
	// fmt.* calls allocate their formatting state (and box every operand).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call.Pos(), "fmt.%s call allocates", obj.Name())
			return
		}
	}
	// Callee resolution: dynamic calls and external bodies are opaque.
	callees := facts.graph.CalleesFor(call)
	for _, callee := range callees {
		if callee == facts.graph.Unknown {
			report(call.Pos(), "call through a function value cannot be proven allocation-free")
			return
		}
	}
	for _, callee := range callees {
		if callee.Body != nil || callee.Func == nil {
			continue
		}
		if _, local := shortFuncName(callee.Func); local {
			continue // module-local but body-less (unloaded subset): trust the full-tree run
		}
		pkg := callee.Func.Pkg()
		if pkg != nil && allocSafeExternalPkgs[pkg.Path()] {
			continue
		}
		if allocSafeExternalFuncs[callee.Func.FullName()] {
			continue
		}
		report(call.Pos(), "call to %s outside the analyzed tree cannot be proven allocation-free", callee.Func.FullName())
		return
	}
	// Variadic calls materialize their argument slice.
	if sig := callSignature(pass, fun); sig != nil {
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			report(call.Pos(), "variadic call allocates its argument slice")
		}
		checkBoxing(pass, call, sig, report)
	}
}

// callSignature returns the called function's signature, nil for builtins
// and conversions.
func callSignature(pass *Pass, fun ast.Expr) *types.Signature {
	t := pass.Info.TypeOf(fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// checkBoxing flags arguments converted to interface parameters when the
// concrete value is not pointer-shaped: storing it in the interface
// allocates. Pointers, channels, maps, funcs, and unsafe pointers are
// stored directly and pass.
func checkBoxing(pass *Pass, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string, ...any)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			last := params.At(params.Len() - 1).Type()
			slice, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case sig.Variadic():
			continue // spread: no per-element conversion
		default:
			continue
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || isPointerShaped(at) {
			continue
		}
		if _, alreadyIface := at.Underlying().(*types.Interface); alreadyIface {
			continue
		}
		if bl, ok := at.(*types.Basic); ok && bl.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "interface boxing of %s argument allocates", typeString(at))
	}
}

// isPointerShaped reports whether values of t fit an interface word without
// allocation.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// allocatingConversion reports string<->byte/rune-slice (and rune-to-
// string) conversions, all of which copy to the heap.
func allocatingConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	fromStr, toStr := isStringType(from), isStringType(to)
	return (fromStr && isByteOrRuneSlice(to)) ||
		(toStr && isByteOrRuneSlice(from)) ||
		(toStr && isRuneOrIntType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isRuneOrIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkClosureCapture flags function literals that capture variables of the
// enclosing function: the closure header escapes to the heap the moment the
// literal does. A literal with no free variables compiles to a static
// function value and passes.
func checkClosureCapture(pass *Pass, encloser *callgraph.Node, lit *ast.FuncLit, report func(token.Pos, string, ...any)) {
	enclStart, enclEnd := encloser.Decl.Pos(), encloser.Decl.End()
	var captured []string
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos >= lit.Pos() && pos < lit.End() {
			return true // the literal's own parameter or local
		}
		if pos < enclStart || pos >= enclEnd {
			return true // package-level (or other-function): no capture
		}
		if !seen[obj.Name()] {
			seen[obj.Name()] = true
			captured = append(captured, obj.Name())
		}
		return true
	})
	if len(captured) > 0 {
		sort.Strings(captured)
		report(lit.Pos(), "closure capture of %s allocates", strings.Join(captured, ", "))
	}
}
