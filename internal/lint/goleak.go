package lint

// goleak requires every goroutine launched in non-test code (the loader
// only feeds ghlint non-test files) to have a *provable termination
// channel*. A `go` statement passes if any of the following holds:
//
//  1. the launching function pairs it with a sync.WaitGroup — an .Add
//     call appears in the same function body, the repo's worker-pool
//     idiom (runner.For, telemetry.Collect, faultnet.serve);
//  2. the call carries a context.Context argument — cancellation is the
//     callee's contract;
//  3. the callee's body is visible (a function literal, or a function or
//     method declared in the same package) and contains a channel
//     receive, a select statement, a WaitGroup Done/Wait call, or no
//     loops at all (a straight-line goroutine runs off the end).
//
// Anything else — the classic fire-and-forget `go func() { for { ... }
// }()` — is flagged: a goroutine nobody can stop outlives Close/Stop,
// keeps connections and timers alive, and turns clean shutdown into a
// race. The "no loops" rule is deliberately generous (a loop-free body
// can still block forever on a channel send), but every false negative
// it admits is a goroutine that terminates in the common case; the
// analyzer's job is catching the unbounded ones.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoleakAnalyzer is the goroutine-lifecycle analyzer.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc: "every `go` statement needs a provable termination channel: a " +
		"WaitGroup pairing in the launching function, a context.Context " +
		"argument, or a visible callee body that receives, selects, or " +
		"does not loop",
	Run: runGoleak,
}

func runGoleak(pass *Pass) {
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		eachFuncBody(file, func(body *ast.BlockStmt) {
			launcherHasAdd := bodyHasWaitGroupAdd(pass.Info, body)
			for _, g := range directGoStmts(body) {
				if launcherHasAdd || goStmtTerminates(pass, g, decls) {
					continue
				}
				pass.Reportf(g.Pos(), "goroutine has no provable termination channel: pair it with a WaitGroup, pass a context.Context, or select on a done/stop channel")
			}
		})
	}
}

// packageFuncDecls maps declared function/method objects to their
// bodies, so `go d.loop()` can be judged by what loop actually does.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

// eachFuncBody visits every function body in the file: declarations and
// literals (including literals bound to package-level vars).
func eachFuncBody(file *ast.File, visit func(*ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}

// directGoStmts returns the go statements belonging to this body and
// not to a nested function literal (the literal is its own launcher).
func directGoStmts(body *ast.BlockStmt) []*ast.GoStmt {
	var out []*ast.GoStmt
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				out = append(out, n)
			}
			return true
		})
	}
	return out
}

// syncWaitGroupMethod reports whether call is wg.<name> for a
// sync.WaitGroup receiver, resolved through the type checker.
func syncWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := derefType(recv.Type()).(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// bodyHasWaitGroupAdd scans a launcher body (nested literals included:
// runner-style pools wrap the Add/spawn pairing in helpers) for a
// WaitGroup Add call.
func bodyHasWaitGroupAdd(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && syncWaitGroupMethod(info, call, "Add") {
			found = true
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// goStmtTerminates applies rules 2 and 3 to one go statement.
func goStmtTerminates(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) bool {
	for _, arg := range g.Call.Args {
		if t := baseType(pass.Info, arg); t != nil && isContextType(t) {
			return true
		}
	}
	body := calleeBody(pass, g.Call, decls)
	if body == nil {
		return false // invisible callee: cannot prove anything
	}
	return bodyTerminates(pass.Info, body)
}

// calleeBody resolves the launched call to a body we can inspect.
func calleeBody(pass *Pass, call *ast.CallExpr, decls map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := decls[pass.Info.Uses[fun]]; ok {
			return fn.Body
		}
	case *ast.SelectorExpr:
		if fn, ok := decls[pass.Info.Uses[fun.Sel]]; ok {
			return fn.Body
		}
	}
	return nil
}

// bodyTerminates looks for a termination signal inside a goroutine
// body: a channel receive (including ranging over a channel), a select,
// a WaitGroup Done/Wait, a context argument threaded into the body —
// or the absence of any loop.
func bodyTerminates(info *types.Info, body *ast.BlockStmt) bool {
	loops := false
	signal := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = true
		case *ast.RangeStmt:
			loops = true
			if t := baseType(info, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					signal = true // ranging a channel ends when it closes
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				signal = true
			}
		case *ast.SelectStmt:
			signal = true
		case *ast.CallExpr:
			if syncWaitGroupMethod(info, n, "Done") || syncWaitGroupMethod(info, n, "Wait") {
				signal = true
			}
		}
		return true
	})
	return signal || !loops
}
