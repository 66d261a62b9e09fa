package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Collective flags par.Comm collectives reachable only under rank-dependent
// control flow. The MPI-style ordering contract (par.Comm doc): every rank
// must call collectives in the same order, so a collective gated on Rank()
// — directly, through a tainted variable, a rank-bounded loop, or the
// remainder of a block after a rank-gated early return — deadlocks the ranks
// that skip it. The check is interprocedural: calling a function that
// (transitively) performs a collective from a rank-guarded region is the
// same bug two hops removed, and the diagnostic prints the call path.
//
// Not flagged: branching on collective RESULTS (AllReduceSumInt64 et al. return the
// same value on every rank — replicated, not rank-dependent) and anything in
// internal/par itself, whose collective implementations are necessarily
// rank-dependent (root vs leaf roles) and are covered by the runtime
// cross-check (assertSameCollective) instead.
//
// Sub-communicators (Comm.Split) refine the contract: a collective on a
// subgroup comm is symmetric iff all ranks OF THAT SUBGROUP reach it. Split
// hands nil to excluded ranks, so a nil test on the comm variable is the
// membership predicate itself — rank-tainted (the color is rank-derived),
// yet the canonical gate of the leader-comm idiom:
//
//	leaders := c.Split(lcolor, key) // lcolor < 0 off-leader
//	if leaders != nil { leaders.AllGatherInt64(x) }
//
// Such a guard admits collectives on the tested comm only. A collective on
// any OTHER comm inside the member arm (or on the parent in the nil arm) is
// still a deadlock — the ranks outside the subgroup never reach it.
var Collective = &Check{
	Name: "collective",
	Doc:  "par.Comm collectives must not be reachable only under rank-dependent control flow",
	Run:  runCollective,
}

func runCollective(p *Pass) {
	if p.Path == parPath {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			taint := rankTaintedVars(p, fd)
			cw := &collectiveWalker{p: p, taint: taint}
			cw.block(fd.Body, nil)
		}
	}
}

// guard describes why a region is rank-dependent, for the diagnostic. A
// membership guard (a nil test on a Split result) additionally names the
// comm whose subgroup the region belongs to: collectives on that comm are
// symmetric across exactly the ranks that enter the region, so checkCall
// admits them while still reporting collectives on every other comm.
type guard struct {
	pos        token.Pos
	desc       string     // "branch", "loop bound", "early return", "subgroup membership ..."
	memberComm *types.Var // non-nil: collectives on this comm are in-contract here
}

type collectiveWalker struct {
	p     *Pass
	taint map[*types.Var]bool
}

// block walks the statements of b under the given guard. A rank-gated
// statement whose body terminates (return/continue/break/panic) promotes the
// guard onto the REST of the block: `if c.Rank() > 0 { return }` makes every
// following statement rank-dependent. The membership form
// `if sub == nil { return }` promotes a membership guard instead — the rest
// of the block runs on every subgroup member, so collectives on sub stay
// in-contract.
func (cw *collectiveWalker) block(b *ast.BlockStmt, g *guard) {
	cur := g
	for _, s := range b.List {
		cw.stmt(s, cur)
		if ifs, ok := s.(*ast.IfStmt); ok && cur == nil {
			if terminates(ifs.Body) && ifs.Else == nil {
				if v, member := commNilCheck(cw.p, ifs.Cond); v != nil && !member {
					cur = &guard{pos: ifs.Cond.Pos(), desc: "subgroup membership early return", memberComm: v}
				} else if cw.tainted(ifs.Cond) {
					cur = &guard{pos: ifs.Cond.Pos(), desc: "early return"}
				}
			}
		}
	}
}

func (cw *collectiveWalker) stmt(s ast.Stmt, g *guard) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			cw.stmt(s.Init, g)
		}
		cw.exprs(g, s.Cond)
		bodyG, elseG := g, g
		if v, member := commNilCheck(cw.p, s.Cond); v != nil && g == nil {
			// Membership branch. Recognized whether or not the comm variable
			// is rank-tainted: the taint analysis tracks data flow only, and
			// the canonical color computation (`lcolor := -1; if rank == 0 {
			// lcolor = 0 }`) hides the rank behind control flow — but a nil
			// *par.Comm only ever means "this rank is outside the subgroup",
			// which is rank-dependent by construction. The arm holding the
			// members may use the tested comm; the other arm stays an
			// ordinary guarded region.
			bodyG = &guard{pos: s.Cond.Pos(), desc: "subgroup membership branch"}
			elseG = &guard{pos: s.Cond.Pos(), desc: "subgroup membership branch"}
			if member {
				bodyG.memberComm = v
			} else {
				elseG.memberComm = v
			}
		} else if cw.tainted(s.Cond) {
			if g == nil {
				ng := &guard{pos: s.Cond.Pos(), desc: "branch"}
				bodyG, elseG = ng, ng
			} else if g.memberComm != nil {
				// A further rank test inside a member arm is rank-dependent
				// WITHIN the subgroup: the membership exemption does not
				// survive it.
				ng := &guard{pos: s.Cond.Pos(), desc: "branch"}
				bodyG, elseG = ng, ng
			}
		}
		cw.block(s.Body, bodyG)
		if s.Else != nil {
			cw.stmt(s.Else, elseG)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			cw.stmt(s.Init, g)
		}
		cw.exprs(g, s.Cond)
		inner := g
		if inner == nil && s.Cond != nil && cw.tainted(s.Cond) {
			inner = &guard{pos: s.Cond.Pos(), desc: "loop bound"}
		}
		if s.Post != nil {
			cw.stmt(s.Post, inner)
		}
		cw.block(s.Body, inner)
	case *ast.RangeStmt:
		cw.exprs(g, s.X)
		inner := g
		if inner == nil && cw.tainted(s.X) {
			inner = &guard{pos: s.X.Pos(), desc: "loop bound"}
		}
		cw.block(s.Body, inner)
	case *ast.SwitchStmt:
		if s.Init != nil {
			cw.stmt(s.Init, g)
		}
		cw.exprs(g, s.Tag)
		inner := g
		if inner == nil && s.Tag != nil && cw.tainted(s.Tag) {
			inner = &guard{pos: s.Tag.Pos(), desc: "branch"}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseGuard := inner
			if caseGuard == nil {
				for _, e := range cc.List {
					if cw.tainted(e) {
						caseGuard = &guard{pos: e.Pos(), desc: "branch"}
						break
					}
				}
			}
			for _, cs := range cc.Body {
				cw.stmt(cs, caseGuard)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cw.stmt(s.Init, g)
		}
		for _, c := range s.Body.List {
			for _, cs := range c.(*ast.CaseClause).Body {
				cw.stmt(cs, g)
			}
		}
	case *ast.BlockStmt:
		cw.block(s, g)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			for _, cs := range c.(*ast.CommClause).Body {
				cw.stmt(cs, g)
			}
		}
	case *ast.LabeledStmt:
		cw.stmt(s.Stmt, g)
	case *ast.ExprStmt:
		cw.exprs(g, s.X)
	case *ast.AssignStmt:
		cw.exprs(g, s.Rhs...)
		cw.exprs(g, s.Lhs...)
	case *ast.ReturnStmt:
		cw.exprs(g, s.Results...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					cw.exprs(g, vs.Values...)
				}
			}
		}
	case *ast.GoStmt:
		cw.exprs(g, s.Call)
	case *ast.DeferStmt:
		cw.exprs(g, s.Call)
	case *ast.SendStmt:
		cw.exprs(g, s.Chan, s.Value)
	case *ast.IncDecStmt:
		cw.exprs(g, s.X)
	}
}

// exprs scans expressions for collective calls (reporting guarded ones) and
// walks any function literals inline under the current guard — a literal
// invoked here (timed(func(){…}), defer func(){…}()) runs in this control
// context.
func (cw *collectiveWalker) exprs(g *guard, es ...ast.Expr) {
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				cw.block(x.Body, g)
				return false
			case *ast.CallExpr:
				if g != nil {
					cw.checkCall(x, g)
				}
			}
			return true
		})
	}
}

// checkCall reports a guarded call that is or reaches a collective.
func (cw *collectiveWalker) checkCall(call *ast.CallExpr, g *guard) {
	fn := calleeOf(cw.p.Info, call)
	if fn == nil {
		return
	}
	gline := cw.p.Fset.Position(g.pos).Line
	if isCollective(fn) {
		if g.memberComm != nil {
			// Membership region: a collective whose receiver is the guarding
			// comm runs on every rank of that subgroup — in-contract.
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok &&
				varOf(cw.p.Info, sel.X) == g.memberComm {
				return
			}
		}
		cw.p.Reportf(call.Pos(),
			"collective %s is reachable only under rank-dependent control (%s at line %d): every rank must call collectives in the same order",
			displayName(fn), g.desc, gline)
		return
	}
	// Don't double-report Rank()/Size() or non-collective par plumbing.
	if _, isComm := isCommMethod(fn); isComm {
		return
	}
	if t := cw.p.Prog.EffectOf(fn, EffCollective); t != nil {
		path := cw.p.Prog.PathOf(fn, EffCollective)
		cw.p.ReportPathf(call.Pos(), path,
			"call to %s reaches collective %s under rank-dependent control (%s at line %d): every rank must call collectives in the same order",
			displayName(fn), lastOf(path), g.desc, gline)
	}
}

func lastOf(path []string) string {
	if len(path) == 0 {
		return "?"
	}
	return path[len(path)-1]
}

// tainted reports whether e depends on the calling rank.
func (cw *collectiveWalker) tainted(e ast.Expr) bool {
	return exprRankTainted(cw.p, e, cw.taint)
}
