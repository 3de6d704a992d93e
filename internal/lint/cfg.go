package lint

// cfg.go builds per-function control-flow graphs — the substrate for the
// flow-sensitive analyzers (guardedby, deferclose). The statement-local
// analyzers (determinism, seedflow, floateq) ask "does this expression
// appear?"; the concurrency analyzers
// must ask "is the lock held *on every path reaching this access?*",
// and that question only makes sense over a graph of basic blocks.
//
// The builder covers the structured-control subset of Go: if/else,
// for (all three forms), range, switch, type switch, select,
// break/continue (labeled and unlabeled), fallthrough, return, and
// calls that provably do not return (panic, os.Exit, log.Fatal*).
// goto is rare enough in this repository (absent, in fact) that the
// builder marks the graph unsupported instead of modelling it;
// analyzers skip such functions rather than risk wrong answers.
//
// Node granularity is the statement (plus conditions and range/switch
// header expressions as standalone nodes), which matches how locks are
// used in Go: a Lock call is its own ExprStmt, so per-statement states
// are exactly lock-acquisition states. Function literals are *excluded*
// from their enclosing graph — a closure runs at an unknowable time, so
// each FuncLit gets its own CFG and its own analysis.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block: a maximal straight-line node sequence.
type cfgBlock struct {
	index int
	nodes []ast.Node // statements and header expressions, in eval order
	succs []*cfgBlock
	preds []*cfgBlock
}

// funcCFG is one function body's control-flow graph.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// exit is the synthetic exit block: returns, panics, and the body's
	// fallthrough end all edge here. It holds no nodes.
	exit *cfgBlock
	// unsupported is set when the body uses control flow the builder
	// does not model (goto); flow-sensitive analyzers should skip the
	// function rather than report from a wrong graph.
	unsupported bool
}

// branchFrame is one enclosing breakable/continuable construct.
type branchFrame struct {
	label string    // enclosing label, "" if none
	brk   *cfgBlock // break target (loops, switch, select)
	cont  *cfgBlock // continue target (loops only, nil otherwise)
}

// cfgBuilder carries the in-progress graph.
type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock
	frames []branchFrame
	// pendingLabel is the label of a LabeledStmt whose inner statement
	// is about to be built; loops and switches consume it.
	pendingLabel string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = b.g.entry
	b.stmt(body)
	b.edge(b.cur, b.g.exit) // implicit return at the end of the body
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	bl := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.nodes = append(b.cur.nodes, n)
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// deadEnd parks the builder on a fresh block with no predecessors:
// statements after a return/branch are unreachable, and a predecessor-
// less block's dataflow state is TOP, so nothing in dead code is ever
// reported.
func (b *cfgBuilder) deadEnd() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // condition false
		}
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		body := b.newBlock()
		b.edge(head, body)
		b.frames = append(b.frames, branchFrame{label: label, brk: after, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X) // the ranged-over expression is evaluated once
		head := b.newBlock()
		b.edge(b.cur, head)
		after := b.newBlock()
		b.edge(head, after) // range exhausted
		body := b.newBlock()
		b.edge(head, body)
		b.frames = append(b.frames, branchFrame{label: label, brk: after, cont: head})
		b.cur = body
		// Key/Value targets are assigned per iteration; surface them for
		// the access classifiers (selector targets here are exotic but
		// legal Go).
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, head)
		b.cur = after
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, branchFrame{label: label, brk: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(head, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		// A select with no cases blocks forever: after then has no
		// predecessors, which is exactly "unreachable".
		b.cur = after
	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			// Not modelled: mark the graph unsupported and route to exit
			// so the block structure stays well formed.
			b.g.unsupported = true
			b.edge(b.cur, b.g.exit)
			b.deadEnd()
		case token.FALLTHROUGH:
			// Handled inside switchStmt (it needs the next clause); a
			// fallthrough reaching here would be invalid Go anyway.
		default: // break, continue
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if t := b.branchTarget(s.Tok, label); t != nil {
				b.edge(b.cur, t)
			} else {
				b.g.unsupported = true
			}
			b.deadEnd()
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.deadEnd()
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.edge(b.cur, b.g.exit)
			b.deadEnd()
		}
	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: straight-line.
		b.add(s)
	}
}

// switchStmt builds value and type switches. Each case guard gets its
// own block (so a fallthrough path does not re-evaluate the next
// clause's guard expressions), bodies are prebuilt as blocks to give
// fallthrough a target, and a missing default adds the no-match edge.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock()
	clauses := body.List
	starts := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		starts[i] = b.newBlock()
	}
	b.frames = append(b.frames, branchFrame{label: label, brk: after})
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if len(cc.List) == 0 {
			hasDefault = true
			b.edge(head, starts[i])
		} else {
			guard := b.newBlock()
			b.edge(head, guard)
			for _, e := range cc.List {
				guard.nodes = append(guard.nodes, e)
			}
			b.edge(guard, starts[i])
		}
		b.cur = starts[i]
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauses) {
					b.edge(b.cur, starts[i+1])
				}
				b.deadEnd()
				continue
			}
			b.stmt(st)
		}
		b.edge(b.cur, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// branchTarget resolves break/continue against the frame stack.
func (b *cfgBuilder) branchTarget(tok token.Token, label string) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		switch tok {
		case token.BREAK:
			if f.brk != nil {
				return f.brk
			}
		case token.CONTINUE:
			if f.cont != nil {
				return f.cont
			}
		}
		if label != "" {
			return nil // labeled the wrong kind of construct
		}
	}
	return nil
}

// isTerminatingCall reports whether a call provably never returns, by
// name: the panic builtin, os.Exit, and the log.Fatal family. This is a
// syntactic check (no type resolution) — a user-defined panic shadow
// would be misclassified, but the deterministic core forbids shadowing
// builtins by convention and the cost of a miss is only a spurious CFG
// edge.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// unparen strips parentheses. (ast.Unparen exists from go1.22, but a
// local helper keeps the floor explicit and costs three lines.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// inspectSync walks n in evaluation-relevant order for the flow
// analyzers, skipping constructs that do not execute synchronously at
// this program point: function-literal bodies (their own CFG), deferred
// calls (they run at exit), and go statements' calls (they run on
// another goroutine; argument evaluation is synchronous, so arguments
// are still visited).
func inspectSync(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.GoStmt:
			for _, arg := range x.Call.Args {
				inspectSync(arg, visit)
			}
			return false
		}
		return visit(x)
	})
}
