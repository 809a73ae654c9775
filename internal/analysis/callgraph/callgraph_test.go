package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildSrc type-checks one import-free source file as package path "p" and
// builds its call graph. Each call gets a fresh FileSet and type-checker so
// repeated builds are genuinely independent.
func buildSrc(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Error: func(error) {}}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Build(fset, []Unit{{Path: "p", Files: []*ast.File{f}, Info: info, Pkg: pkg}})
}

// edgeIDs returns "callerID kind calleeID" strings for every edge, for
// order-insensitive membership checks.
func edgeIDs(g *Graph) map[string]bool {
	out := map[string]bool{}
	for _, n := range g.Nodes() {
		for _, e := range n.Out {
			out[n.ID+" "+e.Kind.String()+" "+e.Callee.ID] = true
		}
	}
	return out
}

func TestStaticAndMethodCalls(t *testing.T) {
	g := buildSrc(t, `package p
type T struct{ n int }
func (t *T) bump() { t.n++ }
func helper()      {}
func root(t *T) {
	helper()
	t.bump()
}
`)
	edges := edgeIDs(g)
	for _, want := range []string{
		"p.root static p.helper",
		"p.root static (*p.T).bump",
	} {
		if !edges[want] {
			t.Errorf("missing edge %q; have %v", want, edges)
		}
	}
	if g.Node("p.root") == nil || g.Node("p.root").Body == nil {
		t.Error("p.root should be a node with a body")
	}
}

func TestInterfaceCallCHA(t *testing.T) {
	g := buildSrc(t, `package p
type doer interface{ do() }
type a struct{}
func (a) do() {}
type b struct{}
func (*b) do() {}
type unrelated struct{}
func (unrelated) other() {}
func root(d doer) { d.do() }
`)
	edges := edgeIDs(g)
	for _, want := range []string{
		"p.root interface (p.a).do",
		"p.root interface (*p.b).do",
	} {
		if !edges[want] {
			t.Errorf("missing CHA edge %q; have %v", want, edges)
		}
	}
	for e := range edges {
		if strings.Contains(e, "unrelated") {
			t.Errorf("unrelated type must not appear as an interface candidate: %s", e)
		}
	}
}

func TestDynamicCallGoesToUnknown(t *testing.T) {
	g := buildSrc(t, `package p
func root(f func()) { f() }
`)
	edges := edgeIDs(g)
	if !edges["p.root dynamic <unknown>"] {
		t.Errorf("call through a function value should edge to <unknown>; have %v", edges)
	}
}

func TestFuncLitEdges(t *testing.T) {
	g := buildSrc(t, `package p
func take(f func()) {}
func root() {
	take(func() { helper() })
	func() { helper() }()
}
func helper() {}
`)
	edges := edgeIDs(g)
	for _, want := range []string{
		"p.root lit p.root$lit0",
		"p.root lit p.root$lit1",
		"p.root$lit0 static p.helper",
		"p.root$lit1 static p.helper",
	} {
		if !edges[want] {
			t.Errorf("missing edge %q; have %v", want, edges)
		}
	}
}

func TestBuiltinsAndConversionsAreNotCalls(t *testing.T) {
	g := buildSrc(t, `package p
type mine int
func root(xs []int) (int, mine, string) {
	n := len(xs)
	m := mine(n)
	s := string(rune(n))
	return n, m, s
}
`)
	for e := range edgeIDs(g) {
		if strings.HasPrefix(e, "p.root ") {
			t.Errorf("builtins/conversions must not produce edges, got %s", e)
		}
	}
}

func TestCalleesForAndNodeFor(t *testing.T) {
	src := `package p
func helper() {}
func root() { helper() }
`
	g := buildSrc(t, src)
	root := g.Node("p.root")
	if root == nil {
		t.Fatal("no p.root node")
	}
	if g.NodeFor(root.Decl) != root {
		t.Error("NodeFor(decl) should round-trip to the node")
	}
	found := false
	ast.Inspect(root.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callees := g.CalleesFor(call)
			if len(callees) != 1 || callees[0].ID != "p.helper" {
				t.Errorf("CalleesFor = %v, want [p.helper]", callees)
			}
			found = true
		}
		return true
	})
	if !found {
		t.Error("no call expression found in root body")
	}
}

// TestBuildDeterminism: two fully independent loads of the same tree (fresh
// FileSet, fresh type-checker, fresh maps) must render byte-identical
// String() dumps — node order, edge order, and literal numbering may not
// depend on map iteration.
func TestBuildDeterminism(t *testing.T) {
	src := `package p
type doer interface{ do() }
type a struct{}
func (a) do() { helper() }
type b struct{}
func (*b) do() {}
func helper() {}
func root(d doer, f func()) {
	d.do()
	f()
	helper()
	go func() { helper() }()
	defer func() { f() }()
}
func cycle1() { cycle2() }
func cycle2() { cycle1() }
`
	first := buildSrc(t, src).String()
	for i := 0; i < 5; i++ {
		if again := buildSrc(t, src).String(); again != first {
			t.Fatalf("build %d differs:\n--- first\n%s\n--- again\n%s", i, first, again)
		}
	}
	if first == "" {
		t.Fatal("empty dump")
	}
}
