package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocfreeAnalyzer verifies `// ghlint:allocfree` annotations: an
// annotated function must contain no allocation site and must call only
// callees that are themselves under the contract. The epoch hot path
// (refit → solve → enforce → step) runs at a few allocs/epoch, but a
// dynamic check — AllocsPerRun pins, the allocs/op of the EpochComb
// benchmarks — notices a regression only after it ships. This analyzer
// turns the invariant static: a refactor that reintroduces boxing,
// slice growth, or a closure anywhere in the annotated call tree is a
// lint finding at the exact line, not a bench delta three layers up.
//
// Allocation sites flagged inside an annotated function:
//
//   - make, new
//   - append without provable reuse (reuse = the base is a slice
//     expression of an existing buffer, or the result is assigned back
//     to the same expression it appends to)
//   - composite literals of slice or map type, and &T{} (the literal's
//     address is taken, so it is heap-allocated unless escape analysis
//     proves otherwise — the analyzer does not model escape analysis)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - implicit interface boxing of non-pointer-shaped concrete values
//     at call arguments, assignments, and returns (the fmt.* trap)
//   - closure creation (function literals that escape) and bound
//     method values
//   - map writes
//   - goroutine launches
//
// Cold paths are exempt, because the contract is about the steady-state
// hot loop, not failure exits or one-time warm-up:
//
//   - a return whose final result is a non-nil error expression (and
//     panic calls): error construction on the failure exit is fine
//   - the body of an `if x == nil`, `if err != nil` (error-typed), or
//     `if cap(x) < n` / `if len(x) != n` guard: lazy initialization and
//     grow-on-demand buffers allocate only until steady state
//
// Callee discipline: an annotated function may call (a) functions that
// are themselves annotated, (b) a vetted stdlib whitelist (math,
// math/bits, sync lock/unlock, sync.Map.Load, errors.Is,
// time.Duration's numeric accessors, and encoding/binary's fixed-width
// Append/Put/Uint accessors — the Append family amortizes into the
// caller's reused buffer), (c) func-typed
// struct fields annotated `// ghlint:allocfree` (every binding to such
// a field is verified program-wide), and (d) interface methods
// annotated `// ghlint:allocfree` (every in-program implementation
// must be annotated). Anything else — including unresolvable dynamic
// calls — is a finding; genuinely-cold allocations on the hot path's
// fringe carry reasoned suppressions that enumerate the per-epoch
// allocation budget in source.
var AllocfreeAnalyzer = &Analyzer{
	Name: "allocfree",
	Doc: "verify ghlint:allocfree annotations: no allocation sites and no " +
		"calls outside the allocfree-verified set, so the zero-alloc hot " +
		"path proven by AllocsPerRun is enforced statically",
	Run: runAllocfree,
}

func runAllocfree(pass *Pass) {
	prog := pass.Prog
	pkg := prog.packageByPath(pass.Path)
	if pkg == nil {
		return
	}
	for _, node := range prog.PackageNodes(pkg) {
		if node.Decl != nil && node.Allocfree && node.Decl.Body != nil {
			newAllocfreeCheck(pass, prog, node).check()
		}
	}
	checkContractBindings(pass, prog, pkg)
	checkContractImpls(pass, prog, pkg)
}

// allocfreeCheck verifies one annotated declaration (or one function
// literal bound to a contract field).
type allocfreeCheck struct {
	pass *Pass
	prog *Program
	root *FuncNode
	// name is the subject used in messages.
	name string
	// edges indexes the root's and its literals' call edges by Lparen.
	edges map[token.Pos]CallEdge
	// handledAppends are append calls already validated as buffer reuse
	// through their enclosing assignment.
	handledAppends map[*ast.CallExpr]bool
	// okLits are literals allowed to exist (immediately invoked, or
	// bound to a local used only in call position); their bodies are
	// checked inline. Other literals are allocation findings and their
	// bodies are skipped.
	okLits map[*ast.FuncLit]bool
	// exempt marks cold-path subtree roots (see package doc).
	exempt map[ast.Node]bool
	// returnSigs maps each return statement to its function's results.
	returnSigs map[*ast.ReturnStmt]*types.Tuple
}

func newAllocfreeCheck(pass *Pass, prog *Program, root *FuncNode) *allocfreeCheck {
	c := &allocfreeCheck{
		pass:           pass,
		prog:           prog,
		root:           root,
		name:           root.Display,
		edges:          make(map[token.Pos]CallEdge),
		handledAppends: make(map[*ast.CallExpr]bool),
		okLits:         make(map[*ast.FuncLit]bool),
		exempt:         make(map[ast.Node]bool),
		returnSigs:     make(map[*ast.ReturnStmt]*types.Tuple),
	}
	declKey := root.Key
	if root.Parent != nil {
		for p := root.Parent; p != nil; p = p.Parent {
			declKey = p.Key
		}
	}
	for key, n := range prog.Funcs {
		if key == root.Key || strings.HasPrefix(key, declKey+"$") {
			for _, e := range n.Calls {
				c.edges[e.Pos] = e
			}
		}
	}
	return c
}

// body returns the subtree this check covers.
func (c *allocfreeCheck) body() *ast.BlockStmt {
	if c.root.Decl != nil {
		return c.root.Decl.Body
	}
	return c.root.Lit.Body
}

func (c *allocfreeCheck) check() {
	body := c.body()
	c.markExempt(body)
	c.classifyLiterals(body)
	c.collectReturnSigs(body)
	c.walk(body)
}

// markExempt records cold-path subtree roots: error-exit returns,
// panic calls, and the bodies of lazy-init / grow-on-demand guards.
func (c *allocfreeCheck) markExempt(body ast.Node) {
	info := c.pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			if isColdErrorReturn(info, s) {
				c.exempt[s] = true
			}
		case *ast.IfStmt:
			if isColdGuard(info, s.Cond) {
				c.exempt[s.Body] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					c.exempt[s] = true
				}
			}
		}
		return true
	})
}

// isColdErrorReturn reports whether ret's final result is a non-nil
// error-typed expression: the failure exit of a hot function, where
// constructing the error is expected to allocate.
func isColdErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	t := info.Types[last].Type
	if t == nil || !isErrorType(t) {
		return false
	}
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// isColdGuard reports whether cond guards a lazy-init, error-handling,
// or grow-on-demand block: `x == nil`, error-typed `x != nil`,
// `cap(x) < n`, `len(x) != n`, and order/operator variants.
func isColdGuard(info *types.Info, cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch bin.Op {
	case token.EQL: // x == nil: lazy initialization
		if isNil(bin.X) || isNil(bin.Y) {
			return true
		}
	case token.NEQ: // err != nil: error handling
		var other ast.Expr
		switch {
		case isNil(bin.X):
			other = bin.Y
		case isNil(bin.Y):
			other = bin.X
		}
		if other != nil {
			if t := info.Types[other].Type; t != nil && isErrorType(t) {
				return true
			}
		}
	}
	// cap/len comparisons in any order with any ordering operator (and
	// len != n): a buffer being grown or reshaped to demand.
	capLen := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || (id.Name != "cap" && id.Name != "len") {
			return false
		}
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	switch bin.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
		return capLen(bin.X) || capLen(bin.Y)
	}
	return false
}

// isErrorType reports whether t is the universe error type.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// classifyLiterals decides which function literals are allowed:
// immediately invoked, or bound once to a local variable whose every
// other use is a call. Those run inline on the hot path and their
// bodies are checked; everything else is a closure allocation.
func (c *allocfreeCheck) classifyLiterals(body ast.Node) {
	// Literals immediately invoked.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			c.okLits[lit] = true
		}
		return true
	})
	// Literals bound once to a call-only local.
	binds := make(map[*types.Var]*ast.FuncLit)
	bindCount := make(map[*types.Var]int)
	uses := make(map[*types.Var][]*ast.Ident)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.Info.Defs[id]
				if obj == nil {
					obj = c.pass.Info.Uses[id]
				}
				v, ok := obj.(*types.Var)
				if !ok || v.IsField() {
					continue
				}
				bindCount[v]++
				if lit, ok := ast.Unparen(s.Rhs[i]).(*ast.FuncLit); ok {
					binds[v] = lit
				} else {
					delete(binds, v)
				}
			}
		case *ast.Ident:
			if v, ok := c.pass.Info.Uses[s].(*types.Var); ok {
				uses[v] = append(uses[v], s)
			}
		}
		return true
	})
	callFuns := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				callFuns[id] = true
			}
		}
		return true
	})
	for v, lit := range binds {
		if bindCount[v] != 1 {
			continue
		}
		onlyCalled := true
		for _, use := range uses[v] {
			if !callFuns[use] {
				onlyCalled = false
				break
			}
		}
		if onlyCalled {
			c.okLits[lit] = true
		}
	}
}

// collectReturnSigs maps each return statement to the result tuple of
// its innermost enclosing function, for return boxing checks.
func (c *allocfreeCheck) collectReturnSigs(body ast.Node) {
	var record func(n ast.Node, results *types.Tuple)
	record = func(n ast.Node, results *types.Tuple) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.FuncLit:
				if sig, ok := c.pass.Info.Types[s].Type.(*types.Signature); ok {
					record(s.Body, sig.Results())
				}
				return false
			case *ast.ReturnStmt:
				c.returnSigs[s] = results
			}
			return true
		})
	}
	var results *types.Tuple
	if c.root.Decl != nil {
		if fn, ok := c.pass.Info.Defs[c.root.Decl.Name].(*types.Func); ok {
			results = fn.Type().(*types.Signature).Results()
		}
	} else if sig, ok := c.pass.Info.Types[c.root.Lit].Type.(*types.Signature); ok {
		results = sig.Results()
	}
	record(body, results)
}

// walk checks every non-exempt node in the subtree.
func (c *allocfreeCheck) walk(body ast.Node) {
	info := c.pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if c.exempt[n] {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			if !c.okLits[s] {
				c.reportf(s.Pos(), "allocates: closure creation (the literal escapes; hoist it or bind it to a call-only local)")
				return false
			}
			return true // body checked inline: the literal runs on the hot path
		case *ast.CallExpr:
			c.checkCall(s)
			return true
		case *ast.CompositeLit:
			c.checkComposite(s)
			return true
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					c.reportf(s.Pos(), "allocates: composite literal escapes via & (heap allocation unless escape analysis intervenes)")
				}
			}
			return true
		case *ast.BinaryExpr:
			if s.Op == token.ADD {
				if t := info.Types[s].Type; t != nil && isStringType(t) {
					c.reportf(s.Pos(), "allocates: string concatenation")
				}
			}
			return true
		case *ast.SelectorExpr:
			return true
		case *ast.AssignStmt:
			c.checkAssign(s)
			return true
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(s.X).(*ast.IndexExpr); ok && c.isMapIndex(idx) {
				c.reportf(s.Pos(), "allocates: map write (may rehash or grow)")
			}
			return true
		case *ast.GoStmt:
			c.reportf(s.Pos(), "allocates: goroutine launch")
			return true
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i, v := range s.Values {
					if t := info.Defs[s.Names[i]]; t != nil {
						c.checkBoxing(t.Type(), v)
					}
				}
			}
			return true
		case *ast.ReturnStmt:
			if results := c.returnSigs[s]; results != nil && results.Len() == len(s.Results) {
				for i, r := range s.Results {
					c.checkBoxing(results.At(i).Type(), r)
				}
			}
			return true
		}
		return true
	})
	c.checkMethodValues(body)
}

// checkMethodValues flags bound method values (x.M used as a value):
// each binds its receiver into a fresh closure.
func (c *allocfreeCheck) checkMethodValues(body ast.Node) {
	calledFuns := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				calledFuns[sel] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if c.exempt[n] {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || calledFuns[sel] {
			return true
		}
		if s, ok := c.pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			c.reportf(sel.Pos(), "allocates: method value %s binds its receiver into a closure", exprString(sel))
		}
		return true
	})
}

// checkCall handles conversions, builtins, callee discipline, and
// implicit boxing at call arguments.
func (c *allocfreeCheck) checkCall(call *ast.CallExpr) {
	info := c.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(tv.Type, call)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(b.Name(), call)
			return
		}
	}
	c.checkArgBoxing(call)

	edge, ok := c.edges[call.Lparen]
	if !ok {
		c.reportf(call.Pos(), "calls %s, which the call graph cannot resolve; annotate the target or suppress with a reason", exprString(call.Fun))
		return
	}
	switch edge.Kind {
	case EdgeStatic:
		if node, inProgram := c.prog.Funcs[edge.Callee]; inProgram {
			if node.Lit != nil {
				return // a tracked literal: its body is checked inline
			}
			if !node.Allocfree {
				c.reportf(call.Pos(), "calls %s, which is not ghlint:allocfree-annotated", node.Display)
			}
			return
		}
		if !allocfreeWhitelisted(edge.CalleePkg, edge.RecvType, edge.CalleeName) {
			c.reportf(call.Pos(), "calls %s.%s, which is outside the allocfree-verified set (not annotated, not whitelisted)", edge.CalleePkg, edge.CalleeName)
		}
	case EdgeContract:
		// Calls through an annotated func-typed field are trusted; the
		// bindings are verified program-wide (checkContractBindings).
	case EdgeIface:
		if !edge.IfaceAnnotated {
			c.reportf(call.Pos(), "calls %s dynamically through interface %s.(%s); annotate the interface method ghlint:allocfree or suppress with a reason",
				edge.CalleeName, displayKey(edge.CalleePkg), edge.RecvType)
		}
		// Annotated interface methods are trusted here; every
		// in-program implementation is verified by checkContractImpls.
	case EdgeUnknown:
		c.reportf(call.Pos(), "calls %s, which the call graph cannot resolve; annotate the target or suppress with a reason", edge.CalleeName)
	}
}

// checkBuiltin flags the allocating builtins.
func (c *allocfreeCheck) checkBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "make":
		c.reportf(call.Pos(), "allocates: make")
	case "new":
		c.reportf(call.Pos(), "allocates: new")
	case "append":
		if !c.handledAppends[call] && !appendReusesBase(call) {
			c.reportf(call.Pos(), "allocates: append may grow its backing array (reuse a buffer via base[:0] or assign the result back to the base)")
		}
	case "print", "println":
		c.reportf(call.Pos(), "allocates: %s boxes its operands", name)
	}
}

// appendReusesBase reports whether append's base is a slice expression
// of an existing buffer (x[:0], x[a:b]) — reuse by construction. A
// full (three-index) slice expression with a capacity bound of 0 is
// the fresh-copy idiom and does not count.
func appendReusesBase(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	return ok && !se.Slice3
}

// checkConversion flags allocating conversions: string<->[]byte/[]rune
// and boxing conversions to interface types.
func (c *allocfreeCheck) checkConversion(dst types.Type, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	src := c.pass.Info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if isStringType(dst) && !isStringType(src) {
		if _, ok := src.Underlying().(*types.Slice); ok {
			c.reportf(call.Pos(), "allocates: conversion to string copies the slice")
		}
		return
	}
	if _, ok := dst.Underlying().(*types.Slice); ok && isStringType(src) {
		c.reportf(call.Pos(), "allocates: conversion from string copies into a new slice")
		return
	}
	if types.IsInterface(dst) {
		c.checkBoxing(dst, call.Args[0])
	}
}

// checkArgBoxing flags implicit interface boxing of arguments against
// the callee's signature (the fmt.* variadic trap).
func (c *allocfreeCheck) checkArgBoxing(call *ast.CallExpr) {
	sig, ok := c.pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no boxing
			}
			if s, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.checkBoxing(pt, arg)
		}
	}
}

// checkAssign handles map writes, string +=, append-reuse validation,
// and boxing at assignments.
func (c *allocfreeCheck) checkAssign(s *ast.AssignStmt) {
	info := c.pass.Info
	// Map writes on any LHS.
	for _, lhs := range s.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && c.isMapIndex(idx) {
			c.reportf(lhs.Pos(), "allocates: map write (may rehash or grow)")
		}
	}
	if s.Tok == token.ADD_ASSIGN {
		if t := info.Types[s.Lhs[0]].Type; t != nil && isStringType(t) {
			c.reportf(s.Pos(), "allocates: string concatenation")
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		// x = append(x, ...): assigning the result back to the base is
		// buffer reuse — growth happens only until steady-state
		// capacity, the same amortization AllocsPerRun pins at zero.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if types.ExprString(ast.Unparen(s.Lhs[i])) == types.ExprString(ast.Unparen(call.Args[0])) {
						c.handledAppends[call] = true
					}
				}
			}
		}
		var dst types.Type
		if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok && s.Tok == token.DEFINE {
			if obj := info.Defs[id]; obj != nil {
				dst = obj.Type()
			}
		} else if t := info.Types[s.Lhs[i]].Type; t != nil {
			dst = t
		}
		if dst != nil {
			c.checkBoxing(dst, rhs)
		}
	}
}

// checkBoxing reports an implicit interface conversion that boxes a
// non-pointer-shaped concrete value onto the heap. Pointer-shaped
// values (*T, chan, func, unsafe.Pointer) fit the interface data word
// without allocating; interface-to-interface conversions never
// re-box; untyped nil is free.
func (c *allocfreeCheck) checkBoxing(dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := c.pass.Info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	st := tv.Type
	if types.IsInterface(st) {
		return
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature:
		return
	case *types.Basic:
		if st.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	c.reportf(src.Pos(), "allocates: interface boxing of %s (concrete %s into %s)", exprString(src), st.String(), dst.String())
}

// isMapIndex reports whether idx indexes a map.
func (c *allocfreeCheck) isMapIndex(idx *ast.IndexExpr) bool {
	t := c.pass.Info.Types[idx.X].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkComposite flags slice and map literals (backing storage is
// allocated). Struct and array literals are values; their escape is
// caught at the &-site.
func (c *allocfreeCheck) checkComposite(lit *ast.CompositeLit) {
	t := c.pass.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.reportf(lit.Pos(), "allocates: slice literal")
	case *types.Map:
		c.reportf(lit.Pos(), "allocates: map literal")
	}
}

func (c *allocfreeCheck) reportf(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, "%s is ghlint:allocfree but %s", c.name, fmt.Sprintf(format, args...))
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocfreeWhitelisted vets stdlib callees that perform no allocation
// (or whose allocation amortizes into a caller-reused buffer, for the
// encoding/binary Append family).
func allocfreeWhitelisted(pkgPath, recv, name string) bool {
	switch pkgPath {
	case "math", "math/bits":
		return true
	case "sync":
		switch recv {
		case "Mutex":
			return name == "Lock" || name == "Unlock" || name == "TryLock"
		case "RWMutex":
			return name == "Lock" || name == "Unlock" || name == "RLock" || name == "RUnlock" || name == "TryLock" || name == "TryRLock"
		case "Map":
			return name == "Load"
		}
	case "encoding/binary":
		switch recv {
		case "littleEndian", "bigEndian":
			return strings.HasPrefix(name, "AppendUint") ||
				strings.HasPrefix(name, "PutUint") ||
				strings.HasPrefix(name, "Uint")
		}
	case "errors":
		return name == "Is"
	case "time":
		// Duration's numeric accessors are pure integer arithmetic;
		// Duration.String (which allocates) is deliberately absent.
		if recv == "Duration" {
			switch name {
			case "Hours", "Minutes", "Seconds", "Milliseconds", "Microseconds", "Nanoseconds":
				return true
			}
		}
	}
	return false
}

// checkContractBindings verifies every binding to an allocfree-
// annotated func-typed field in pkg: the bound value must be an
// annotated function, an annotated-field-compatible method, or a
// function literal that itself passes the allocfree body check.
func checkContractBindings(pass *Pass, prog *Program, pkg *Package) {
	if len(prog.contractFields) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					fieldKey, ok := selectionFieldKey(pass.Info, sel)
					if !ok {
						continue
					}
					if _, annotated := prog.contractFields[fieldKey]; annotated {
						checkContractValue(pass, prog, pkg, fieldKey, s.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				t := pass.Info.Types[s].Type
				if t == nil {
					return true
				}
				named, ok := derefType(t).(*types.Named)
				if !ok || named.Obj().Pkg() == nil {
					return true
				}
				for _, elt := range s.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					fieldKey := named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + key.Name
					if _, annotated := prog.contractFields[fieldKey]; annotated {
						checkContractValue(pass, prog, pkg, fieldKey, kv.Value)
					}
				}
			}
			return true
		})
	}
}

// selectionFieldKey resolves x.F to its field key when F is a struct
// field.
func selectionFieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	recvName, ok := recvTypeName(s.Recv())
	if !ok {
		return "", false
	}
	return v.Pkg().Path() + ".(" + recvName + ")." + v.Name(), true
}

// checkContractValue verifies one value bound to an annotated field.
func checkContractValue(pass *Pass, prog *Program, pkg *Package, fieldKey string, value ast.Expr) {
	value = ast.Unparen(value)
	display := displayKey(fieldKey)
	if tv, ok := pass.Info.Types[value]; ok && tv.IsNil() {
		return // nil binding: never called, never allocates
	}
	if lit, ok := value.(*ast.FuncLit); ok {
		// The literal becomes the contract body: verify it like an
		// annotated function.
		for _, n := range prog.PackageNodes(pkg) {
			if n.Lit == lit {
				c := newAllocfreeCheck(pass, prog, n)
				c.name = "the literal bound to " + display
				c.check()
				return
			}
		}
		pass.Reportf(value.Pos(), "binding to allocfree contract field %s cannot be verified (literal not in call graph)", display)
		return
	}
	// A function reference or method value.
	var fn *types.Func
	switch v := value.(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[v].(*types.Func)
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[v]; ok && s.Kind() == types.MethodVal {
			fn, _ = s.Obj().(*types.Func)
		} else {
			fn, _ = pass.Info.Uses[v.Sel].(*types.Func)
		}
	}
	if fn != nil {
		if key, ok := funcKey(fn); ok {
			if node, inProgram := prog.Funcs[key]; inProgram {
				if !node.Allocfree {
					pass.Reportf(value.Pos(), "%s is bound to allocfree contract field %s but is not ghlint:allocfree-annotated", node.Display, display)
				}
				return
			}
			pass.Reportf(value.Pos(), "%s is bound to allocfree contract field %s but is outside the analyzed program", displayKey(key), display)
			return
		}
	}
	pass.Reportf(value.Pos(), "binding to allocfree contract field %s cannot be statically verified; bind a named annotated function or a literal", display)
}

// checkContractImpls verifies that every in-program implementation of
// an allocfree-annotated interface method is itself annotated. The
// caller trusts the interface contract; this closes the loop over the
// implementations CHA can see.
func checkContractImpls(pass *Pass, prog *Program, pkg *Package) {
	if len(prog.contractIfaceMethods) == 0 {
		return
	}
	keys := make([]string, 0, len(prog.contractIfaceMethods))
	for k := range prog.contractIfaceMethods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, ifaceKey := range keys {
		ifaceType, method, ok := splitMethodKey(ifaceKey)
		if !ok {
			continue
		}
		required := prog.ifaceMethods[ifaceType]
		if required == nil {
			continue
		}
		for _, impl := range prog.methodsByName[method] {
			if impl.Pkg != pkg || impl.Allocfree {
				continue
			}
			typeKey := impl.Pkg.Path + "." + impl.recvName()
			if !implementsByName(prog.methodNames[typeKey], required) {
				continue
			}
			pass.Reportf(impl.Decl.Name.Pos(),
				"%s implements %s, which is ghlint:allocfree-annotated; annotate the implementation (or break the interface satisfaction)",
				impl.Display, displayKey(ifaceKey))
		}
	}
}

// splitMethodKey splits "pkg.(T).M" into "pkg.(T)" and "M".
func splitMethodKey(key string) (typeKey, method string, ok bool) {
	i := strings.LastIndex(key, ").")
	if i < 0 {
		return "", "", false
	}
	return key[:i+1], key[i+2:], true
}
