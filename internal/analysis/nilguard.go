package analysis

import (
	"go/ast"
	"go/token"
)

// nilGuarded lists the observability types whose exported pointer-receiver
// methods must begin with a nil-receiver guard: they sit on the simulator's
// hot path and their documented contract is "a nil receiver is valid and
// inert, the unprobed run costs one nil check". One unguarded method turns
// every unprobed simulation into a panic the first time that method is
// reached — typically long after the probe wiring that should have caught
// it. Keyed by package path so fixtures can masquerade via path override.
var nilGuarded = map[string]map[string]bool{
	"shadow/internal/obs": {
		"Probe": true,
	},
	"shadow/internal/obs/span": {
		"Tracker":   true,
		"Collector": true,
	},
	"shadow/internal/obs/flight": {
		"Ring":    true,
		"Watch":   true,
		"CmdHash": true,
	},
	"shadow/internal/obs/fleet": {
		"Collector": true,
	},
}

// NilGuard enforces the nil-safe hot-path contract: every exported method
// with a pointer receiver of a guarded obs-layer type must open with a
// nil-receiver check — either an if statement whose condition tests the
// receiver against nil (`if p == nil { return }`, `if t == nil || sp == nil
// { ... }`, `if c != nil { ... }`) or a single return of a nil comparison
// (`return p != nil`). The guard must be the first statement: work before
// it is work a nil receiver executes.
var NilGuard = &Analyzer{
	Name: "nilguard",
	Doc: "require exported methods on nil-safe obs hot-path types (obs.Probe, " +
		"span.Tracker, span.Collector, flight.Ring, flight.Watch, flight.CmdHash, " +
		"fleet.Collector) to begin with a nil-receiver guard",
	Run: runNilGuard,
}

func runNilGuard(pass *Pass) {
	guarded := nilGuarded[pass.PkgPath]
	if guarded == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recvName, typeName, ptr := receiver(fn)
			if !ptr || !guarded[typeName] {
				continue
			}
			if recvName == "" || recvName == "_" {
				pass.Reportf(fn.Pos(), "method %s.%s needs a named receiver to carry its nil-receiver guard", typeName, fn.Name.Name)
				continue
			}
			if !beginsWithNilGuard(fn.Body, recvName) {
				pass.Reportf(fn.Pos(), "exported method (%s *%s).%s must begin with a nil-receiver guard (the nil-safe hot-path contract: `if %s == nil { ... }`)",
					recvName, typeName, fn.Name.Name, recvName)
			}
		}
	}
}

// receiver extracts the receiver variable name, the receiver's type name,
// and whether it is a pointer receiver.
func receiver(fn *ast.FuncDecl) (recvName, typeName string, ptr bool) {
	if len(fn.Recv.List) != 1 {
		return "", "", false
	}
	field := fn.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return recvName, "", false
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return recvName, t.Name, true
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			return recvName, id.Name, true
		}
	}
	return recvName, "", false
}

// beginsWithNilGuard reports whether the body's first statement tests the
// receiver against nil.
func beginsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	switch s := body.List[0].(type) {
	case *ast.IfStmt:
		return s.Init == nil && condTestsNil(s.Cond, recv)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if condTestsNil(r, recv) {
				return true
			}
		}
	}
	return false
}

// condTestsNil walks a boolean expression looking for `recv == nil` or
// `recv != nil` as an operand (possibly inside &&/||/!/parens, as in
// `if t == nil || sp == nil` or `if h == nil || !h.printed`).
func condTestsNil(e ast.Expr, recv string) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return condTestsNil(e.X, recv)
	case *ast.UnaryExpr:
		return e.Op == token.NOT && condTestsNil(e.X, recv)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			return condTestsNil(e.X, recv) || condTestsNil(e.Y, recv)
		case token.EQL, token.NEQ:
			return isIdent(e.X, recv) && isIdent(e.Y, "nil") ||
				isIdent(e.X, "nil") && isIdent(e.Y, recv)
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
