package analysis

import (
	"go/ast"
	"go/types"
)

// lockTypeNames are the sync types that must never be copied and whose
// acquire/release must pair up.
var lockTypeNames = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Once":      true,
	"Cond":      true,
}

// Locks enforces the no-copy rule around the sync package: sync.Mutex,
// sync.RWMutex, sync.WaitGroup, sync.Once and sync.Cond (or structs
// containing one by value) must not be copied — not passed or returned by
// value, not assigned from an existing value, not ranged over by value — a
// copied lock guards nothing.
//
// Its original second rule (every Lock has a same-function Unlock) moved
// to the flow-sensitive lockflow analyzer, which proves release on every
// path instead of anywhere in the body; waive those findings as lockflow.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "forbid by-value copies of sync.Mutex/WaitGroup/... (Lock/Unlock pairing is flow-checked by lockflow)",
	Run:  runLocks,
}

func runLocks(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n.Type)
				if n.Recv != nil {
					for _, field := range n.Recv.List {
						if t := pass.Info.TypeOf(field.Type); t != nil && containsLock(t, nil) {
							pass.Reportf(field.Pos(), "method receiver copies %s; use a pointer receiver", lockIn(t))
						}
					}
				}
			case *ast.FuncLit:
				checkSignature(pass, n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkLockCopy(pass, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkLockCopy(pass, v)
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pass.Info.TypeOf(n.Value); t != nil && containsLock(t, nil) {
						pass.Reportf(n.Value.Pos(), "range copies a value containing %s; range over indices or pointers instead", lockIn(t))
					}
				}
			}
			return true
		})
	}
}

// checkSignature flags parameters and results that carry a lock by value.
func checkSignature(pass *Pass, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.Info.TypeOf(field.Type)
			if t == nil || !containsLock(t, nil) {
				continue
			}
			pass.Reportf(field.Pos(), "%s passes %s by value; use a pointer", kind, lockIn(t))
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// checkLockCopy flags reading an existing lock-bearing value (as opposed to
// constructing a fresh zero value, which is how locks are born).
func checkLockCopy(pass *Pass, rhs ast.Expr) {
	switch rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return // composite literals, calls, &x, ... are not copies of a live lock
	}
	t := pass.Info.TypeOf(rhs)
	if t == nil || !containsLock(t, nil) {
		return
	}
	// Reading through a pointer type is fine; the copy check is on values.
	pass.Reportf(rhs.Pos(), "assignment copies a value containing %s; use a pointer", lockIn(t))
}

// containsLock reports whether t holds one of the sync lock types by value
// (directly, in a struct field, or in an array element).
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypeNames[obj.Name()] {
			return true
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// lockIn names the offending lock type inside t for the diagnostic.
func lockIn(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypeNames[obj.Name()] {
			return "sync." + obj.Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), nil) {
				return lockIn(u.Field(i).Type())
			}
		}
	case *types.Array:
		return lockIn(u.Elem())
	}
	return "a sync lock"
}

// syncMethod matches calls to methods defined in package sync
// (Lock/Unlock/RLock/RUnlock/Wait/Done/...) and returns the method name,
// the rendered receiver expression, and the receiver's named type (Mutex,
// RWMutex, WaitGroup, Cond). Shared by the locks, lockflow, goroleak, and
// sharedflow analyzers.
func syncMethod(pass *Pass, call *ast.CallExpr) (name, recv, typeName string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	if t := pass.Info.TypeOf(sel.X); t != nil {
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			typeName = named.Obj().Name()
		}
	}
	return fn.Name(), types.ExprString(sel.X), typeName, true
}
