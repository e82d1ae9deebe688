package lint

import (
	"go/ast"
	"go/types"
)

// analyzerCtxplumb enforces the context-propagation contract from PR 2:
// cancellation flows from the caller down every query path, so contexts
// are plumbed as parameters, never minted mid-stack or parked in structs.
//
// Three rules:
//
//  1. context.Background()/context.TODO() are banned outside package main.
//     A context tree has exactly one legitimate root per process; a
//     Background() inside a library function silently detaches everything
//     below it from the caller's deadline. Exemptions: the
//     convenience-wrapper idiom (a function F whose body calls FContext —
//     the documented non-context twin pattern) and functions annotated
//     //doelint:ctxroot -- <why>.
//
//  2. A context.Context parameter must come first, matching the standard
//     library convention and every Exchange/Query signature in the module.
//
//  3. A context must be forwarded, not stored: writing a context into a
//     struct field or composite literal outlives the call that carried it
//     and resurrects canceled deadlines later (the classic "contained
//     context" bug).
var analyzerCtxplumb = &Analyzer{
	Name: "ctxplumb",
	Doc:  "no context.Background/TODO outside main (//doelint:ctxroot for roots); ctx first param; contexts forwarded, not stored",
	Run:  runCtxplumb,
}

func runCtxplumb(pass *Pass) {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxSignature(pass, fn.Type)
			if fn.Body == nil {
				continue
			}
			if !isMain && !ctxRootExempt(fn) {
				checkCtxRoots(pass, fn)
			}
			checkCtxStores(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkCtxSignature(pass, lit.Type)
				}
				return true
			})
		}
	}
}

// checkCtxSignature flags a context.Context parameter that is not the
// first parameter.
func checkCtxSignature(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		if isContextType(pass.Info.TypeOf(field.Type)) && idx > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter, found at position %d", idx+1)
		}
		idx += names
	}
}

// ctxRootExempt reports whether a function may legitimately mint a root
// context: annotated roots and the F -> FContext convenience-wrapper idiom.
func ctxRootExempt(fn *ast.FuncDecl) bool {
	return hasFuncDirective(fn, "ctxroot") || callsContextTwin(fn)
}

// callsContextTwin detects the convenience-wrapper idiom: F's body calls
// FContext (same name plus the "Context" suffix), delegating the real work
// to the context-taking twin.
func callsContextTwin(fn *ast.FuncDecl) bool {
	twin := fn.Name.Name + "Context"
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeName(call) == twin {
			found = true
		}
		return !found
	})
	return found
}

// checkCtxRoots flags context.Background()/context.TODO() calls.
func checkCtxRoots(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		if !isPackageRef(pass, sel.X, "context") {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() outside package main detaches callees from the caller's deadline; accept a ctx parameter or annotate //doelint:ctxroot -- <why>",
			sel.Sel.Name)
		return true
	})
}

// checkCtxStores flags contexts written into struct fields or composite
// literals. The graph builder computes the same condition as a fact; the
// analyzer re-derives it locally so the finding lands on the exact store.
func checkCtxStores(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if i < len(x.Rhs) && isContextType(pass.Info.TypeOf(x.Rhs[i])) {
					pass.Reportf(x.Pos(),
						"context stored in a struct field outlives its call; forward ctx as a parameter instead")
				}
			}
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(x)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Struct); !ok {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if isContextType(pass.Info.TypeOf(val)) {
					pass.Reportf(val.Pos(),
						"context stored in a composite literal outlives its call; forward ctx as a parameter instead")
				}
			}
		}
		return true
	})
}

// isPackageRef reports whether expr names the import of the given package
// path.
func isPackageRef(pass *Pass, expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.objectOf(id).(*types.PkgName)
	if !ok {
		return false
	}
	return pkg.Imported().Path() == path
}
