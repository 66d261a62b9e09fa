package lint

import (
	"go/ast"
	"go/token"
)

// This file builds intraprocedural control-flow graphs over go/ast for the
// path-sensitive checks (spmd). The CFG is deliberately syntax-directed: it
// is built from one structured function body, so loop membership is known
// exactly at construction time (no dominator computation needed) and every
// back edge is an edge to the head of a Loop that contains its source block.
//
// Modeling decisions, shared with the checks that consume the graph:
//
//   - A block's Stmts execute in order, then its Conds (branch/loop/switch
//     conditions) are evaluated, then control follows one of Succs.
//   - panic(...) terminates the path (edge to Exit), like return.
//   - goto is routed conservatively to Exit (the project style bans goto;
//     a spurious Exit edge only makes traces more conservative).
//   - defer statements are modeled at the point of the defer statement, not
//     at function exit: a deferred collective still enters the trace of
//     every path through the defer, so rank-gating it still diverges.
//   - Function literals are NOT inlined into the enclosing CFG; callers
//     analyze literal bodies as their own CFGs.

// Block is one basic block.
type Block struct {
	Index int
	Pos   token.Pos  // position of the controlling statement (Term) or first stmt
	Stmts []ast.Stmt // straight-line statements executed in order
	// Conds are the expressions evaluated after Stmts to select a successor:
	// an if/for condition, a range operand, or a switch tag plus case
	// expressions. Empty for unconditional blocks.
	Conds []ast.Expr
	Succs []*Block
	// Term is the control statement that ends the block (IfStmt, ForStmt,
	// RangeStmt, SwitchStmt, TypeSwitchStmt, SelectStmt), nil otherwise.
	Term ast.Stmt
	// Loop is the innermost loop containing the block (nil at top level).
	Loop *Loop
}

// Loop is one syntactic loop (for or range). Head is the block that
// re-evaluates the loop condition each iteration; every edge to Head from a
// block the loop contains is a back edge.
type Loop struct {
	Head   *Block
	Parent *Loop
}

// Contains reports whether b is inside l (at any nesting depth).
func (l *Loop) Contains(b *Block) bool {
	for x := b.Loop; x != nil; x = x.Parent {
		if x == l {
			return true
		}
	}
	return false
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // every return/panic/fall-off-the-end edge targets Exit
	Blocks []*Block
	Loops  []*Loop
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*cfgLabel)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.cur.Pos = body.Pos()
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

type cfgLabel struct {
	brk, cont *Block
}

type cfgBuilder struct {
	cfg      *CFG
	cur      *Block // nil after a terminating statement
	loop     *Loop  // innermost loop under construction
	brk      []*Block
	cont     []*Block
	fallthru *Block // next case body, inside a switch case
	labels   map[string]*cfgLabel
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Loop: b.loop}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// newBlockIn creates a block with explicit loop membership (used for loop
// heads/bodies vs. their after-blocks).
func (b *cfgBuilder) newBlockIn(l *Loop) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Loop: l}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// ensure gives dead code after a terminator its own unreachable block so the
// builder stays total; blocks without predecessors are simply never traversed.
func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.ensure()
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isPanicCallStmt(s) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

func isPanicCallStmt(s *ast.ExprStmt) bool {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.cur.Stmts = append(b.cur.Stmts, s)
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil {
				target = l.brk
			}
		} else if len(b.brk) > 0 {
			target = b.brk[len(b.brk)-1]
		}
	case token.CONTINUE:
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil {
				target = l.cont
			}
		} else if len(b.cont) > 0 {
			target = b.cont[len(b.cont)-1]
		}
	case token.FALLTHROUGH:
		target = b.fallthru
	case token.GOTO:
		// Conservative: treated as leaving the function.
		target = b.cfg.Exit
	}
	if target == nil {
		target = b.cfg.Exit
	}
	b.edge(b.cur, target)
	b.cur = nil
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	defer delete(b.labels, name)
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, name)
	case *ast.SelectStmt:
		b.selectStmt(inner, name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
		b.ensure()
	}
	cond := b.cur
	cond.Conds = append(cond.Conds, s.Cond)
	cond.Term = s
	cond.Pos = s.Pos()
	join := b.newBlock()
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join)
	}
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

// pushLoop registers break/continue targets (and an optional label) for a
// loop body build; the returned func pops them.
func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) func() {
	b.brk = append(b.brk, brk)
	b.cont = append(b.cont, cont)
	if label != "" {
		b.labels[label] = &cfgLabel{brk: brk, cont: cont}
	}
	return func() {
		b.brk = b.brk[:len(b.brk)-1]
		b.cont = b.cont[:len(b.cont)-1]
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
		b.ensure()
	}
	parent := b.loop
	l := &Loop{Parent: parent}
	b.cfg.Loops = append(b.cfg.Loops, l)
	head := b.newBlockIn(l)
	l.Head = head
	head.Pos = s.Pos()
	head.Term = s
	if s.Cond != nil {
		head.Conds = append(head.Conds, s.Cond)
	}
	b.edge(b.cur, head)
	after := b.newBlockIn(parent)
	after.Pos = s.End()
	contTarget := head
	if s.Post != nil {
		post := b.newBlockIn(l)
		post.Pos = s.Post.Pos()
		post.Stmts = append(post.Stmts, s.Post)
		b.edge(post, head)
		contTarget = post
	}
	body := b.newBlockIn(l)
	body.Pos = s.Body.Pos()
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	pop := b.pushLoop(label, after, contTarget)
	b.loop = l
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, contTarget)
	}
	b.loop = parent
	pop()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	parent := b.loop
	l := &Loop{Parent: parent}
	b.cfg.Loops = append(b.cfg.Loops, l)
	head := b.newBlockIn(l)
	l.Head = head
	head.Pos = s.Pos()
	head.Term = s
	head.Conds = append(head.Conds, s.X)
	b.edge(b.cur, head)
	after := b.newBlockIn(parent)
	after.Pos = s.End()
	body := b.newBlockIn(l)
	body.Pos = s.Body.Pos()
	b.edge(head, body)
	b.edge(head, after)
	pop := b.pushLoop(label, after, head)
	b.loop = l
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.loop = parent
	pop()
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
		b.ensure()
	}
	head := b.cur
	head.Term = s
	head.Pos = s.Pos()
	if s.Tag != nil {
		head.Conds = append(head.Conds, s.Tag)
	}
	after := b.newBlock()
	after.Pos = s.End()
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock()
		bodies[i].Pos = cc.Pos()
		if cc.List == nil {
			hasDefault = true
		}
		head.Conds = append(head.Conds, cc.List...)
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.brk = append(b.brk, after)
	if label != "" {
		b.labels[label] = &cfgLabel{brk: after}
	}
	savedFT := b.fallthru
	for i, cc := range clauses {
		b.cur = bodies[i]
		if i+1 < len(clauses) {
			b.fallthru = bodies[i+1]
		} else {
			b.fallthru = nil
		}
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.fallthru = savedFT
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
		b.ensure()
	}
	head := b.cur
	head.Term = s
	head.Pos = s.Pos()
	// The switched expression: `switch x := y.(type)` or `switch y.(type)`.
	switch a := s.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := unparen(a.X).(*ast.TypeAssertExpr); ok {
			head.Conds = append(head.Conds, ta.X)
		}
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
				head.Conds = append(head.Conds, ta.X)
			}
		}
	}
	after := b.newBlock()
	after.Pos = s.End()
	hasDefault := false
	var bodies []*Block
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.newBlock()
		blk.Pos = cc.Pos()
		bodies = append(bodies, blk)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blk)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.brk = append(b.brk, after)
	if label != "" {
		b.labels[label] = &cfgLabel{brk: after}
	}
	for i, cc := range clauses {
		b.cur = bodies[i]
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	head.Term = s
	head.Pos = s.Pos()
	after := b.newBlock()
	after.Pos = s.End()
	b.brk = append(b.brk, after)
	if label != "" {
		b.labels[label] = &cfgLabel{brk: after}
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		blk.Pos = cc.Pos()
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.cur.Stmts = append(b.cur.Stmts, cc.Comm)
		}
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = after
}
