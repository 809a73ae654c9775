// Package callgraph builds a module-wide call graph over go/types for the
// shadowvet analyzers that need whole-program facts. Like the rest of the
// suite it is standard library only — a deliberately small reimplementation
// of the golang.org/x/tools/go/callgraph idea, sized for this repository.
//
// Resolution strategy, in decreasing order of precision:
//
//   - a call of a named function or of a method on a concrete (non-interface)
//     receiver produces a single static edge (EdgeStatic) — method calls are
//     devirtualized through go/types' selection machinery, so promoted and
//     pointer-receiver methods resolve to the concrete *types.Func;
//   - a call through an interface produces one EdgeInterface edge per
//     concrete type in the analyzed unit set that implements the interface
//     (class-hierarchy analysis). The unit set is treated as a closed world:
//     implementations outside the analyzed packages are invisible, which is
//     sound for the full-tree CI run and degrades gracefully on subsets;
//   - a call through a function value (a variable, field, parameter, or
//     call result of function type) cannot be resolved and produces a single
//     EdgeDynamic edge to the synthetic Unknown node. Analyzers choose their
//     own policy for Unknown: allocflow pessimistically flags the call site,
//     detflow optimistically ignores it (matching the per-package scan it
//     replaces);
//   - an immediately-invoked function literal is a static call to the
//     literal's own node; every other literal gets a conservative EdgeLit
//     edge from its enclosing function, modeling that a literal handed to
//     sort.Slice or a mitigator callback may run as part of the enclosing
//     call. Literal nodes are named <encloser>$litN in source order, so
//     identity is stable across runs.
//
// Functions imported from outside the analyzed units (the standard library,
// packages not on the command line) appear as body-less nodes: edges lead to
// them, but their own calls are invisible. Package-level variable
// initializers and init functions are not modeled — no shadowvet analyzer
// roots there.
//
// Everything about the graph is deterministic: Nodes() sorts by ID, a
// node's edges are deduplicated by callee and ordered by first call-site
// position, and SCCs() condenses with Tarjan's algorithm over that ordering.
// Two Builds over the same tree render byte-identical String() dumps, which
// the per-package analysis framework relies on for scheduling-independent
// output.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Unit is one type-checked package handed to Build: the parsed files and
// the type information the checker filled for them.
type Unit struct {
	// Path is the unit's import path, used only for diagnostics.
	Path  string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a named function, a devirtualized
	// method call on a concrete receiver, or an immediately-invoked literal.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is one class-hierarchy candidate of an interface call.
	EdgeInterface
	// EdgeDynamic is a call through a function value; the callee is always
	// the Unknown node.
	EdgeDynamic
	// EdgeLit is the conservative "may run as part of the enclosing call"
	// edge from a function to a literal it creates but does not call
	// directly.
	EdgeLit
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeDynamic:
		return "dynamic"
	case EdgeLit:
		return "lit"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// A Node is one function: named, literal, external (body-less), or the
// synthetic Unknown.
type Node struct {
	// ID is the node's stable identity: types.Func.FullName() for named
	// functions ("(*shadow/internal/memctrl.Controller).Step"),
	// "<encloser>$litN" for function literals, "<unknown>" for the Unknown
	// node.
	ID string
	// Func is the type-checker's object for named functions; nil for
	// literals and Unknown.
	Func *types.Func
	// Decl is the *ast.FuncDecl or *ast.FuncLit when the function's source
	// is part of the analyzed units; nil for external functions and Unknown.
	Decl ast.Node
	// Body is Decl's body (nil when Decl is nil or the declaration has no
	// body, e.g. assembly stubs).
	Body *ast.BlockStmt
	// PkgPath is the declaring package's import path per the type-checker
	// ("" for literals' enclosing-path inheritance failures and Unknown).
	PkgPath string
	// Out and In are the node's call edges, deduplicated by (kind, callee)
	// resp. (kind, caller) and ordered by first call-site position.
	Out []*Edge
	In  []*Edge
}

// An Edge is one resolved call relationship.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	// Pos is the first call site (or literal position for EdgeLit) that
	// produced the edge.
	Pos token.Pos
}

// A Graph is the call graph of one Build.
type Graph struct {
	Fset *token.FileSet
	// Unknown is the synthetic callee of every unresolvable call.
	Unknown *Node

	nodes map[string]*Node
	// declNodes maps *ast.FuncDecl / *ast.FuncLit to their nodes so
	// per-package analyzers can find the node for a declaration they are
	// walking.
	declNodes map[ast.Node]*Node
	// siteCallees maps each *ast.CallExpr to its resolved callee nodes in
	// deterministic order, for analyzers that report per call site.
	siteCallees map[*ast.CallExpr][]*Node
	sorted      []*Node // memoized Nodes() result
}

// Build constructs the call graph of the given units. Units must share fset.
func Build(fset *token.FileSet, units []Unit) *Graph {
	g := &Graph{
		Fset:        fset,
		nodes:       map[string]*Node{},
		declNodes:   map[ast.Node]*Node{},
		siteCallees: map[*ast.CallExpr][]*Node{},
	}
	g.Unknown = &Node{ID: "<unknown>"}
	g.nodes[g.Unknown.ID] = g.Unknown

	b := &graphBuilder{g: g, hierarchy: collectHierarchy(units)}
	// Pass 1: create a node for every declared function so cross-unit
	// references bind to the node that owns the body regardless of unit
	// order.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.ensure(fn)
				n.Decl = fd
				n.Body = fd.Body
				g.declNodes[fd] = n
			}
		}
	}
	// Pass 2: walk every body, creating literal nodes and edges.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b.walkBody(u, g.declNodes[fd], fd.Body)
			}
		}
	}
	b.finish()
	return g
}

// ensure returns the node for fn, creating a body-less one on first sight.
func (g *Graph) ensure(fn *types.Func) *Node {
	id := fn.FullName()
	if n, ok := g.nodes[id]; ok {
		// Prefer the object that owns a loaded body; either way the ID is
		// the identity, so duplicate type-checker objects (a package loaded
		// both directly and through the source importer) merge here.
		return n
	}
	n := &Node{ID: id, Func: fn}
	if fn.Pkg() != nil {
		n.PkgPath = fn.Pkg().Path()
	}
	g.nodes[id] = n
	g.sorted = nil
	return n
}

// Nodes returns every node (including Unknown and external body-less
// functions) sorted by ID.
func (g *Graph) Nodes() []*Node {
	if g.sorted == nil {
		g.sorted = make([]*Node, 0, len(g.nodes))
		for _, n := range g.nodes {
			g.sorted = append(g.sorted, n)
		}
		sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].ID < g.sorted[j].ID })
	}
	return g.sorted
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// NodeFor returns the node of a *ast.FuncDecl or *ast.FuncLit from the
// analyzed units, or nil.
func (g *Graph) NodeFor(decl ast.Node) *Node { return g.declNodes[decl] }

// CalleesFor returns the resolved callee nodes of one call expression in
// deterministic order (empty for builtins and conversions; contains Unknown
// for dynamic calls).
func (g *Graph) CalleesFor(call *ast.CallExpr) []*Node { return g.siteCallees[call] }

// String renders the graph one node per line with its outgoing edges, in
// sorted order — byte-identical across Builds over the same tree.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "%s\n", n.ID)
		for _, e := range n.Out {
			pos := ""
			if e.Pos.IsValid() {
				p := g.Fset.Position(e.Pos)
				pos = fmt.Sprintf(" %s:%d", p.Filename, p.Line)
			}
			fmt.Fprintf(&sb, "  -> %s [%s]%s\n", e.Callee.ID, e.Kind, pos)
		}
	}
	return sb.String()
}

// SCCs returns the strongly connected components of the graph in reverse
// topological order of the condensation: every edge leaving a component
// points to an earlier component in the slice, so a bottom-up fact
// propagation (callees before callers) can run in one pass. Node order
// within a component and the component order itself are deterministic.
func (g *Graph) SCCs() [][]*Node {
	s := &sccState{
		index:   map[*Node]int{},
		lowlink: map[*Node]int{},
		onStack: map[*Node]bool{},
	}
	for _, n := range g.Nodes() {
		if _, seen := s.index[n]; !seen {
			s.strongconnect(n)
		}
	}
	return s.comps
}

// sccState is Tarjan's bookkeeping. The recursion depth is bounded by the
// deepest call chain in the module, which is small here.
type sccState struct {
	counter int
	index   map[*Node]int
	lowlink map[*Node]int
	onStack map[*Node]bool
	stack   []*Node
	comps   [][]*Node
}

func (s *sccState) strongconnect(v *Node) {
	s.index[v] = s.counter
	s.lowlink[v] = s.counter
	s.counter++
	s.stack = append(s.stack, v)
	s.onStack[v] = true
	for _, e := range v.Out {
		w := e.Callee
		if _, seen := s.index[w]; !seen {
			s.strongconnect(w)
			if s.lowlink[w] < s.lowlink[v] {
				s.lowlink[v] = s.lowlink[w]
			}
		} else if s.onStack[w] && s.index[w] < s.lowlink[v] {
			s.lowlink[v] = s.index[w]
		}
	}
	if s.lowlink[v] == s.index[v] {
		var comp []*Node
		for {
			w := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			s.onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i].ID < comp[j].ID })
		s.comps = append(s.comps, comp)
	}
}

// hierarchy is the class-hierarchy side table for interface devirtualization:
// every concrete named type declared in the analyzed units.
type hierarchy struct {
	concrete []types.Type // named non-interface types, deterministic order
}

func collectHierarchy(units []Unit) *hierarchy {
	h := &hierarchy{}
	seen := map[string]bool{}
	type entry struct {
		key string
		t   types.Type
	}
	var entries []entry
	for _, u := range units {
		if u.Pkg == nil {
			continue
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() {
				t := tn.Type()
				if _, isIface := t.Underlying().(*types.Interface); isIface {
					continue
				}
				key := u.Pkg.Path() + "." + name
				if !seen[key] {
					seen[key] = true
					entries = append(entries, entry{key, t})
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		h.concrete = append(h.concrete, e.t)
	}
	return h
}

// implementations returns the concrete methods satisfying one interface
// method, in deterministic order.
func (h *hierarchy) implementations(iface *types.Interface, method *types.Func) []*types.Func {
	var out []*types.Func
	for _, t := range h.concrete {
		impl := types.Implements(t, iface)
		if !impl {
			if ptr := types.NewPointer(t); types.Implements(ptr, iface) {
				impl = true
				t = ptr
			}
		}
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, method.Pkg(), method.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// graphBuilder accumulates raw edges before the deterministic dedup pass.
type graphBuilder struct {
	g         *Graph
	hierarchy *hierarchy
	raw       []rawEdge
}

type rawEdge struct {
	caller, callee *Node
	kind           EdgeKind
	pos            token.Pos
}

// walkBody records the edges of one function body. Nested literal bodies
// are handed to their own nodes; the shallow walk stops at FuncLit
// boundaries.
func (b *graphBuilder) walkBody(u Unit, caller *Node, body *ast.BlockStmt) {
	if caller == nil || body == nil {
		return
	}
	litIndex := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := &Node{
				ID:      fmt.Sprintf("%s$lit%d", caller.ID, litIndex),
				Decl:    n,
				Body:    n.Body,
				PkgPath: caller.PkgPath,
			}
			litIndex++
			b.g.nodes[lit.ID] = lit
			b.g.sorted = nil
			b.g.declNodes[n] = lit
			b.raw = append(b.raw, rawEdge{caller, lit, EdgeLit, n.Pos()})
			b.walkBody(u, lit, n.Body)
			return false // the literal owns its own subtree
		case *ast.CallExpr:
			b.call(u, caller, n)
		}
		return true
	})
}

// call resolves one call expression into edges and the per-site callee list.
func (b *graphBuilder) call(u Unit, caller *Node, call *ast.CallExpr) {
	callees, kind := b.resolve(u, call)
	for _, callee := range callees {
		b.raw = append(b.raw, rawEdge{caller, callee, kind, call.Lparen})
	}
	if len(callees) > 0 {
		b.g.siteCallees[call] = callees
	}
}

// resolve maps a call expression to callee nodes. Builtins and type
// conversions resolve to nothing; unresolvable calls resolve to Unknown.
func (b *graphBuilder) resolve(u Unit, call *ast.CallExpr) ([]*Node, EdgeKind) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](x) — unwrap to the underlying operand.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := u.Info.Types[idx.X]; ok && isFuncExpr(u, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		// Immediately invoked. The enclosing walk gives every literal an
		// EdgeLit edge from its encloser, which models "runs as part of the
		// enclosing call" — exactly what an immediate invocation is — so no
		// extra edge is needed here.
		return nil, EdgeStatic
	case *ast.Ident:
		obj := u.Info.Uses[fun]
		switch obj := obj.(type) {
		case *types.Builtin:
			return nil, EdgeStatic
		case *types.TypeName:
			return nil, EdgeStatic // conversion T(x)
		case *types.Func:
			return []*Node{b.g.ensure(obj)}, EdgeStatic
		case *types.Var:
			return []*Node{b.g.Unknown}, EdgeDynamic
		}
		return []*Node{b.g.Unknown}, EdgeDynamic
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				// Field of function type (or a method value being built and
				// called in one expression through extra parens) — dynamic.
				return []*Node{b.g.Unknown}, EdgeDynamic
			}
			recv := sel.Recv()
			if iface, isIface := recv.Underlying().(*types.Interface); isIface {
				method, _ := sel.Obj().(*types.Func)
				if method == nil {
					return []*Node{b.g.Unknown}, EdgeDynamic
				}
				impls := b.hierarchy.implementations(iface, method)
				if len(impls) == 0 {
					// No analyzed implementation: keep the interface method's
					// own (body-less) node so the call is visible in dumps.
					return []*Node{b.g.ensure(method)}, EdgeInterface
				}
				nodes := make([]*Node, 0, len(impls))
				for _, fn := range impls {
					nodes = append(nodes, b.g.ensure(fn))
				}
				return nodes, EdgeInterface
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*Node{b.g.ensure(fn)}, EdgeStatic
			}
			return []*Node{b.g.Unknown}, EdgeDynamic
		}
		// Qualified identifier pkg.Func, or a conversion pkg.T(x).
		switch obj := u.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return []*Node{b.g.ensure(obj)}, EdgeStatic
		case *types.TypeName:
			return nil, EdgeStatic
		case *types.Builtin:
			return nil, EdgeStatic
		}
		return []*Node{b.g.Unknown}, EdgeDynamic
	}
	return []*Node{b.g.Unknown}, EdgeDynamic
}

// finish dedups raw edges deterministically and attaches them to nodes.
func (b *graphBuilder) finish() {
	type key struct {
		caller, callee *Node
		kind           EdgeKind
	}
	first := map[key]*Edge{}
	var order []*Edge
	for _, r := range b.raw {
		k := key{r.caller, r.callee, r.kind}
		if e, ok := first[k]; ok {
			if r.pos < e.Pos {
				e.Pos = r.pos
			}
			continue
		}
		e := &Edge{Caller: r.caller, Callee: r.callee, Kind: r.kind, Pos: r.pos}
		first[k] = e
		order = append(order, e)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, o := order[i], order[j]
		if a.Pos != o.Pos {
			return a.Pos < o.Pos
		}
		if a.Caller.ID != o.Caller.ID {
			return a.Caller.ID < o.Caller.ID
		}
		if a.Callee.ID != o.Callee.ID {
			return a.Callee.ID < o.Callee.ID
		}
		return a.Kind < o.Kind
	})
	for _, e := range order {
		e.Caller.Out = append(e.Caller.Out, e)
		e.Callee.In = append(e.Callee.In, e)
	}
}

func isFuncExpr(u Unit, e ast.Expr) bool {
	tv, ok := u.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}
