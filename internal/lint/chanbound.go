package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChanboundAnalyzer enforces the bounded-concurrency contract of the
// telemetry plane and the daemon that hosts it:
// "backpressure instead of unbounded queues" is only a slogan until
// every channel in the collector plane has a reasoned size and every
// send has a provable way out.
//
// Two rules, enforced over the backpressure scope (internal/telemetry
// and internal/daemon):
//
//  1. Every `make(chan T)` must pass an explicit capacity, or carry a
//     reasoned `// ghlint:unbounded <reason>` directive (trailing on the
//     make's line, or standalone on the line above). A zero-capacity
//     channel is a rendezvous — every send blocks until a receiver is
//     ready — which is exactly right for close-only signal channels and
//     exactly wrong for a data queue; the directive records which one
//     this is.
//
//  2. Every send statement needs a provable non-blocking escape:
//     a select with a `default` clause (drop/shed path), a select with
//     a cancellation receive case (`<-x.Done()` — the send aborts on
//     shutdown), or a reasoned `ghlint:mayblock <reason>` contract —
//     either a line directive at the send or a doc-comment contract on
//     the enclosing declared function, for functions whose whole job is
//     a blocking handoff.
//
// Directives are themselves checked: a missing reason is malformed (a
// suppression without a recorded justification never silently widens the
// blind spot), and an unbounded/mayblock line directive whose line has
// no matching make/send is dead and reported — a directive that drifted
// away from its statement would otherwise re-arm the hazard invisibly.
var ChanboundAnalyzer = &Analyzer{
	Name: "chanbound",
	Doc: "bounded-concurrency contracts for the telemetry plane: every " +
		"make(chan) needs an explicit capacity or a reasoned " +
		"ghlint:unbounded directive, and every send needs a non-blocking " +
		"escape (select default, cancellation case, or ghlint:mayblock " +
		"contract)",
	Run: runChanbound,
}

const (
	unboundedMarker = "ghlint:unbounded"
	mayblockMarker  = "ghlint:mayblock"
)

// chanDirective is one ghlint:unbounded / ghlint:mayblock line
// directive, indexed by the code line it governs.
type chanDirective struct {
	pos    token.Pos
	reason string
	used   bool
}

func runChanbound(pass *Pass) {
	if !backpressureScope[pkgKey(pass.Path)] {
		return
	}
	for _, f := range pass.Files {
		docGroups := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docGroups[fd.Doc] = true
			}
		}
		unbounded, mayblock := collectChanDirectives(pass, f, docGroups)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			docMayblock := funcMayblockContract(pass, fd)
			w := &chanWalker{
				pass:      pass,
				unbounded: unbounded,
				mayblock:  mayblock,
				contract:  docMayblock,
			}
			w.walk(fd.Body, nil)
		}
		for _, lineDirs := range []map[int]*chanDirective{unbounded, mayblock} {
			for _, d := range lineDirs {
				if !d.used && d.reason != "" {
					pass.Reportf(d.pos,
						"dead directive: no matching statement on the governed line; move it next to the make/send it justifies")
				}
			}
		}
	}
}

// funcMayblockContract checks fd's doc comment for a ghlint:mayblock
// contract, reporting a malformed (reasonless) one.
func funcMayblockContract(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		arg, ok := directiveArg(c, mayblockMarker)
		if !ok {
			continue
		}
		if trimWantMarker(arg) == "" {
			pass.Reportf(c.Pos(),
				"malformed %s contract: missing reason — record why %s is allowed to block", mayblockMarker, fd.Name.Name)
			return false
		}
		return true
	}
	return false
}

// collectChanDirectives indexes a file's unbounded/mayblock line
// directives by governed line (trailing → own line, standalone → next
// line, same placement rules as suppressions) and reports reasonless
// ones as malformed. Function doc comments are excluded: a mayblock
// marker there is a function contract (funcMayblockContract), not a
// line directive.
func collectChanDirectives(pass *Pass, f *ast.File, docGroups map[*ast.CommentGroup]bool) (unbounded, mayblock map[int]*chanDirective) {
	unbounded = make(map[int]*chanDirective)
	mayblock = make(map[int]*chanDirective)
	codeLines := codeLineSet(pass.Fset, f)
	for _, cg := range f.Comments {
		if docGroups[cg] {
			continue
		}
		for _, c := range cg.List {
			for marker, into := range map[string]map[int]*chanDirective{
				unboundedMarker: unbounded,
				mayblockMarker:  mayblock,
			} {
				arg, ok := directiveArg(c, marker)
				if !ok {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				target := pos.Line + 1
				if codeLines[pos.Line] {
					target = pos.Line
				}
				d := &chanDirective{pos: c.Pos(), reason: trimWantMarker(arg)}
				if d.reason == "" {
					pass.Reportf(c.Pos(),
						"malformed %s directive: missing reason — record why", marker)
					d.used = true // malformed already reported; not also dead
				}
				into[target] = d
			}
		}
	}
	return unbounded, mayblock
}

// trimWantMarker strips a fixture harness "// want ..." annotation from
// a directive argument so fixtures can carry both on one line.
func trimWantMarker(arg string) string {
	if i := strings.Index(arg, "// want"); i >= 0 {
		arg = arg[:i]
	}
	return strings.TrimSpace(arg)
}

// selectInfo describes the select statement enclosing a send case.
type selectInfo struct {
	hasDefault bool
	hasCancel  bool
}

// chanWalker walks one function body applying both rules. The enclosing
// select (for send cases) is threaded through the walk; function
// literals inherit the declared function's mayblock doc contract — the
// literal lexically lives inside the contract's scope.
type chanWalker struct {
	pass      *Pass
	unbounded map[int]*chanDirective
	mayblock  map[int]*chanDirective
	contract  bool
}

func (w *chanWalker) walk(n ast.Node, sel *selectInfo) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			w.checkMake(s)
		case *ast.SendStmt:
			w.checkSend(s, sel)
			// Channel and value expressions may contain nested makes.
			w.walk(s.Chan, sel)
			w.walk(s.Value, sel)
			return false
		case *ast.SelectStmt:
			info := classifySelect(s)
			for _, clause := range s.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					w.walk(cc.Comm, &info)
				}
				for _, stmt := range cc.Body {
					// The case body runs after the communication won;
					// sends inside it are ordinary sends again.
					w.walk(stmt, nil)
				}
			}
			return false
		}
		return true
	})
}

// classifySelect finds the escape clauses of a select: a default case,
// or a cancellation receive (`<-x.Done()` / `<-ctx.Done()`).
func classifySelect(s *ast.SelectStmt) selectInfo {
	var info selectInfo
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			info.hasDefault = true
			continue
		}
		if recvFromDone(cc.Comm) {
			info.hasCancel = true
		}
	}
	return info
}

// recvFromDone reports whether a comm clause receives from a zero-arg
// .Done() call — the context/stop-channel cancellation idiom.
func recvFromDone(comm ast.Stmt) bool {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	unary, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || unary.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(unary.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// checkMake applies rule 1 to a make(chan …) call.
func (w *chanWalker) checkMake(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := w.pass.Info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "make" || len(call.Args) == 0 {
		return
	}
	tv, ok := w.pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return
	}
	line := w.pass.Fset.Position(call.Pos()).Line
	d := w.unbounded[line]
	if len(call.Args) >= 2 {
		if d != nil && !d.used {
			d.used = true
			w.pass.Reportf(d.pos,
				"dead %s directive: this make(chan) already has an explicit capacity", unboundedMarker)
		}
		return
	}
	if d != nil {
		d.used = true
		return
	}
	w.pass.Reportf(call.Pos(),
		"make(chan) without an explicit capacity: a zero-capacity channel blocks every send until a receiver is ready; size it for backpressure or justify with // %s <reason>", unboundedMarker)
}

// checkSend applies rule 2 to one send statement. A mayblock line
// directive on a send that already has an escape is claimed (and
// reported as dead) here, mirroring checkMake's redundant-directive
// report — otherwise the end-of-file sweep would mis-describe it as
// having no matching statement.
func (w *chanWalker) checkSend(s *ast.SendStmt, sel *selectInfo) {
	line := w.pass.Fset.Position(s.Pos()).Line
	d := w.mayblock[line]
	if sel != nil && (sel.hasDefault || sel.hasCancel) {
		if d != nil && !d.used {
			d.used = true
			w.pass.Reportf(d.pos,
				"dead %s directive: this send already has a non-blocking escape in its select", mayblockMarker)
		}
		return
	}
	if w.contract {
		if d != nil && !d.used {
			d.used = true
			w.pass.Reportf(d.pos,
				"dead %s directive: the enclosing function's %s contract already covers this send", mayblockMarker, mayblockMarker)
		}
		return
	}
	if d != nil {
		d.used = true
		return
	}
	w.pass.Reportf(s.Arrow,
		"send on %q has no non-blocking escape: wrap it in a select with a default or cancellation case, or contract the blocking handoff with // %s <reason>", exprString(s.Chan), mayblockMarker)
}
