package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The spmd check verifies the SPMD collective protocol path-sensitively: any
// branch whose condition is rank-tainted must rejoin with an identical
// collective trace on every outgoing path, and any loop whose bound is
// rank-tainted must not enclose collectives. A collective reachable only
// under rank-dependent control deadlocks the ranks that skip it; comparing
// whole traces rather than single call sites also accepts the symmetric idiom
//
//	if c.Rank() == root { c.BcastInt64(root, plan) } else { c.BcastInt64(root, nil) }
//
// (both paths run [BcastInt64]) while an asymmetric rejoin two calls deep
// is reported as a counterexample: the two concrete call paths with their
// mismatched traces.
//
// A trace is a sequence of events. Collective events compare by method name —
// the same equality the par runtime's cross-rank sequence assertion uses.
// Constructs the analysis cannot see through become opaque events that
// compare by a stable key (function identity, loop position, branch
// position), so the same construct reached from two paths compares equal and
// genuinely different constructs do not:
//
//   - a loop that contains collectives contributes one opaque event keyed by
//     the loop position (iteration counts are compared by the loop-bound
//     rule, not by unrolling);
//   - a branch on a non-rank value whose arms have different traces is
//     data-dependent divergence; it truncates to an opaque event keyed by
//     the branch position (on replicated data every rank takes the same arm,
//     so two ranks reaching the same branch still agree);
//   - dynamic dispatch over implementations with different traces and
//     recursion contribute opaque events keyed by the callee identity.
//
// Function literals are analyzed when invoked (directly, or through a
// once-bound local). A literal passed as a call argument, inline or through
// a once-bound local — the timed(func(){…}) wrapper every P2/P3 phase runs
// under — is conservatively assumed to run once, at that call. Deferred
// calls are modeled at the defer statement.
//
// Sub-communicators: a nil test on a *par.Comm variable (`sub != nil`) is
// the subgroup-membership predicate, since Split hands nil to excluded ranks.
// It is rank-dependent by construction, whether or not the taint analysis
// sees the rank behind the color. Its arms diverge by design on the tested
// comm — members run its collectives, non-members do not — so they are
// compared with the tested comm's direct collectives dropped: every other
// comm's schedule must still agree. Collectives reached
// through a helper call stay in the comparison (the helper may use any comm).
// A nil test on a struct field (`h.leaders != nil`) is an ordinary data
// branch: a nil field may just as well be an unbuilt lazy comm.

// collEvent is one element of a collective trace.
type collEvent struct {
	name string    // collective method name, or an opaque description
	key  string    // extra equality key for opaque events ("" for collectives)
	via  []string  // call chain from the analyzed function to the event
	pos  token.Pos // where the event enters the analyzed function
}

func (e collEvent) equal(o collEvent) bool { return e.name == o.name && e.key == o.key }

func equalTraces(a, b []collEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

func renderTrace(t []collEvent) string {
	if len(t) == 0 {
		return "[] (no collectives)"
	}
	parts := make([]string, len(t))
	for i, e := range t {
		s := e.name
		if len(e.via) > 0 {
			s += " via " + strings.Join(e.via, "->")
		}
		parts[i] = s
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// collTrace returns fn's collective trace summary: the exact sequence of
// events every call to fn contributes. Memoized on the Program so the whole
// tree is summarized once per Run.
func (prog *Program) collTrace(fn *types.Func) []collEvent {
	if isCollective(fn) {
		return []collEvent{{name: fn.Name()}}
	}
	if prog.traceMemo == nil {
		prog.traceMemo = make(map[*types.Func][]collEvent)
		prog.traceOn = make(map[*types.Func]bool)
	}
	if t, ok := prog.traceMemo[fn]; ok {
		return t
	}
	if prog.traceOn[fn] {
		return []collEvent{{name: "recursive call", key: displayName(fn)}}
	}
	prog.traceOn[fn] = true
	defer delete(prog.traceOn, fn)

	var t []collEvent
	if prog.EffectOf(fn, EffCollective) != nil {
		nodes := prog.resolve(fn)
		switch {
		case len(nodes) == 0:
			// Reaches collectives but has no analyzable body (external).
			t = []collEvent{{name: "opaque call", key: displayName(fn)}}
		case len(nodes) == 1:
			t = prog.nodeTrace(nodes[0])
		default:
			// Dynamic dispatch: if every implementation agrees, the call is
			// transparent; otherwise it is opaque by method identity.
			t = prog.nodeTrace(nodes[0])
			for _, n := range nodes[1:] {
				if !equalTraces(t, prog.nodeTrace(n)) {
					t = []collEvent{{name: "dynamic dispatch to " + fn.Name(), key: fn.FullName()}}
					break
				}
			}
		}
	}
	prog.traceMemo[fn] = t
	return t
}

func (prog *Program) nodeTrace(n *FuncNode) []collEvent {
	if n.Decl == nil || n.Decl.Body == nil {
		return nil
	}
	p := &Pass{Package: n.Pkg, Prog: prog}
	a := newSpmdFn(p, n.Decl.Body, BuildCFG(n.Decl.Body))
	return a.tailTrace(a.cfg.Entry)
}

// spmdFn analyzes one CFG (a function body or a function literal body).
// Children created for literal bodies share the literal-trace memo. A view
// with drop set omits the direct collectives on that comm (see without).
type spmdFn struct {
	p        *Pass
	cfg      *CFG
	drop     *types.Var
	bindings map[*types.Var]*ast.FuncLit
	local    map[*Block][]collEvent
	tail     map[*Block][]collEvent
	onstack  map[*Block]bool
	loopEv   map[*Loop][]collEvent
	loopExit map[*Loop][]collEvent
	loopOn   map[*Loop]bool
	lits     map[*ast.FuncLit][]collEvent
}

func newSpmdFn(p *Pass, scope ast.Node, cfg *CFG) *spmdFn {
	return &spmdFn{
		p:        p,
		cfg:      cfg,
		bindings: litBindings(p, scope),
		local:    make(map[*Block][]collEvent),
		tail:     make(map[*Block][]collEvent),
		onstack:  make(map[*Block]bool),
		loopEv:   make(map[*Loop][]collEvent),
		loopExit: make(map[*Loop][]collEvent),
		loopOn:   make(map[*Loop]bool),
		lits:     make(map[*ast.FuncLit][]collEvent),
	}
}

// child analyzes a nested literal body with its own CFG but shared bindings,
// literal memo and dropped comm.
func (a *spmdFn) child(cfg *CFG) *spmdFn {
	return &spmdFn{
		p:        a.p,
		cfg:      cfg,
		drop:     a.drop,
		bindings: a.bindings,
		local:    make(map[*Block][]collEvent),
		tail:     make(map[*Block][]collEvent),
		onstack:  make(map[*Block]bool),
		loopEv:   make(map[*Loop][]collEvent),
		loopExit: make(map[*Loop][]collEvent),
		loopOn:   make(map[*Loop]bool),
		lits:     a.lits,
	}
}

// without is a view of the same CFG whose traces omit the direct collectives
// on comm v — including those in literals, and before any join, so a loop
// or nested branch in a member arm that only uses v stays silent. It has its
// own memos: the filtered traces differ from a's.
func (a *spmdFn) without(v *types.Var) *spmdFn {
	f := a.child(a.cfg)
	f.drop = v
	f.lits = make(map[*ast.FuncLit][]collEvent)
	return f
}

func (a *spmdFn) posStr(pos token.Pos) string {
	p := a.p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func opaqueEv(desc, key string, pos token.Pos) collEvent {
	return collEvent{name: desc, key: key, pos: pos}
}

// localTrace is the event sequence of one block: its statements in order,
// then its branch conditions.
func (a *spmdFn) localTrace(b *Block) []collEvent {
	if t, ok := a.local[b]; ok {
		return t
	}
	var out []collEvent
	for _, s := range b.Stmts {
		a.scan(s, &out)
	}
	for _, c := range b.Conds {
		a.scan(c, &out)
	}
	a.local[b] = out
	return out
}

// scan collects the events of one statement or expression, in evaluation
// order (receiver and arguments before the call's own events).
func (a *spmdFn) scan(node ast.Node, out *[]collEvent) {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Not executed at its mention; invoked literals and callback
			// arguments are spliced by the CallExpr case below.
			return false
		case *ast.CallExpr:
			a.scan(x.Fun, out)
			for _, arg := range x.Args {
				if lit := resolveBodyArg(a.p, arg, a.bindings); lit != nil {
					// A callback (timed(func(){…})): assumed run once, here.
					*out = append(*out, a.litTrace(lit)...)
				} else {
					a.scan(arg, out)
				}
			}
			a.callEvents(x, out)
			return false
		}
		return true
	})
}

func (a *spmdFn) callEvents(call *ast.CallExpr, out *[]collEvent) {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		*out = append(*out, a.litTrace(lit)...)
		return
	}
	fn := calleeOf(a.p.Info, call)
	if fn == nil {
		// A call through a function value: inline a once-bound literal,
		// otherwise assume no collectives (consistent with the call graph's
		// CHA-lite resolution).
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := a.p.Info.Uses[id].(*types.Var); ok {
				if lit := a.bindings[v]; lit != nil {
					*out = append(*out, a.litTrace(lit)...)
				}
			}
		}
		return
	}
	if isCollective(fn) {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if ok && a.drop != nil && varOf(a.p.Info, sel.X) == a.drop {
			return
		}
		*out = append(*out, collEvent{name: fn.Name(), pos: call.Pos()})
		return
	}
	for _, ev := range a.p.Prog.collTrace(fn) {
		ev.via = append([]string{displayName(fn)}, ev.via...)
		ev.pos = call.Pos()
		*out = append(*out, ev)
	}
}

func (a *spmdFn) litTrace(lit *ast.FuncLit) []collEvent {
	if t, ok := a.lits[lit]; ok {
		return t
	}
	a.lits[lit] = nil // cycle guard for literals reachable through bindings
	sub := a.child(BuildCFG(lit.Body))
	t := sub.tailTrace(sub.cfg.Entry)
	a.lits[lit] = t
	return t
}

// loopHeadedBy returns the loop whose head is b, if any.
func loopHeadedBy(b *Block) *Loop {
	if b.Loop != nil && b.Loop.Head == b {
		return b.Loop
	}
	return nil
}

// loopEvents is the concatenation of local traces of every block inside l —
// non-empty iff executing an iteration can emit events.
func (a *spmdFn) loopEvents(l *Loop) []collEvent {
	if t, ok := a.loopEv[l]; ok {
		return t
	}
	out := []collEvent{}
	for _, b := range a.cfg.Blocks {
		if l.Contains(b) {
			out = append(out, a.localTrace(b)...)
		}
	}
	a.loopEv[l] = out
	return out
}

func (a *spmdFn) eventful(l *Loop) bool { return len(a.loopEvents(l)) > 0 }

// loopExitTrace joins the continuations of every edge leaving l. If the
// exits disagree (e.g. a return inside the loop vs. falling out to code that
// still runs collectives), the join truncates to an opaque divergence event.
func (a *spmdFn) loopExitTrace(l *Loop) []collEvent {
	if t, ok := a.loopExit[l]; ok {
		return t
	}
	if a.loopOn[l] {
		return []collEvent{opaqueEv("loop cycle", a.posStr(l.Head.Pos), l.Head.Pos)}
	}
	a.loopOn[l] = true
	defer delete(a.loopOn, l)

	var join []collEvent
	first := true
	diverged := false
	for _, b := range a.cfg.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, s := range b.Succs {
			if l.Contains(s) {
				continue
			}
			c := a.succContribution(b, s)
			if first {
				join, first = c, false
			} else if !equalTraces(join, c) {
				diverged = true
			}
		}
	}
	if diverged {
		join = []collEvent{opaqueEv("divergent loop exits", a.posStr(l.Head.Pos), l.Head.Pos)}
	}
	a.loopExit[l] = join
	return join
}

// succContribution is the trace contributed by following the edge b→s:
//
//   - back edge to an event-free loop: the remaining iterations are silent,
//     so continue with the loop's exit join;
//   - back edge to an eventful loop: an opaque next-iteration event — paths
//     that keep looping compare equal to each other and unequal to paths
//     that leave the loop;
//   - entry edge into a loop: the loop's whole execution (opaque if
//     eventful) followed by its exit join;
//   - plain edge: the successor's tail trace.
func (a *spmdFn) succContribution(b, s *Block) []collEvent {
	if l := loopHeadedBy(s); l != nil {
		if l.Contains(b) {
			if a.eventful(l) {
				return []collEvent{opaqueEv("next iteration of loop", a.posStr(l.Head.Pos), l.Head.Pos)}
			}
			return a.loopExitTrace(l)
		}
		var out []collEvent
		if a.eventful(l) {
			out = append(out, opaqueEv("loop with collectives", a.posStr(l.Head.Pos), l.Head.Pos))
		}
		return append(out, a.loopExitTrace(l)...)
	}
	return a.tailTrace(s)
}

// tailTrace is the collective trace from b to function exit, with loops
// summarized as above. The entry block's tail trace is the function summary.
func (a *spmdFn) tailTrace(b *Block) []collEvent {
	if t, ok := a.tail[b]; ok {
		return t
	}
	if a.onstack[b] {
		return []collEvent{opaqueEv("cycle", a.posStr(b.Pos), b.Pos)}
	}
	a.onstack[b] = true
	defer delete(a.onstack, b)

	ev := append([]collEvent{}, a.localTrace(b)...)
	switch len(b.Succs) {
	case 0:
		// Exit block.
	case 1:
		ev = append(ev, a.succContribution(b, b.Succs[0])...)
	default:
		first := a.succContribution(b, b.Succs[0])
		agreed := true
		for _, s := range b.Succs[1:] {
			if !equalTraces(first, a.succContribution(b, s)) {
				agreed = false
				break
			}
		}
		if agreed {
			ev = append(ev, first...)
		} else {
			// Data-dependent divergence: on replicated data every rank takes
			// the same arm, so truncate to an event keyed by this branch.
			ev = append(ev, opaqueEv("data-dependent divergence", a.posStr(b.Pos), b.Pos))
		}
	}
	a.tail[b] = ev
	return ev
}

// witnessPath extracts a call path for the diagnostic from the first
// interprocedural event in either trace.
func witnessPath(fnName string, traces ...[]collEvent) []string {
	for _, t := range traces {
		for _, e := range t {
			if len(e.via) > 0 {
				path := append([]string{fnName}, e.via...)
				return append(path, e.name)
			}
		}
	}
	for _, t := range traces {
		for _, e := range t {
			if e.key == "" {
				return []string{fnName, e.name}
			}
		}
	}
	return []string{fnName}
}

// checkBlocks reports rank-tainted branches whose successor traces disagree,
// rank-tainted loop bounds enclosing collectives, and membership branches
// whose arms disagree on any comm but the tested one.
func (a *spmdFn) checkBlocks(fnName string, taint map[*types.Var]bool) {
	for _, b := range a.cfg.Blocks {
		if len(b.Conds) == 0 {
			continue
		}
		if ifs, ok := b.Term.(*ast.IfStmt); ok {
			if v := commNilCheck(a.p, ifs.Cond); v != nil {
				a.checkArms(fnName, b, a.without(v),
					"subgroup membership branch on "+v.Name()+" diverges the collective schedule outside "+v.Name(),
					"only collectives on "+v.Name()+" may differ between its members and the excluded ranks")
				continue
			}
		}
		tainted := false
		for _, c := range b.Conds {
			if exprRankTainted(a.p, c, taint) {
				tainted = true
				break
			}
		}
		if !tainted {
			continue
		}
		if l := loopHeadedBy(b); l != nil {
			if ev := a.loopEvents(l); len(ev) > 0 {
				path := witnessPath(fnName, ev)
				a.p.ReportPathf(b.Pos, path,
					"rank-dependent loop bound encloses collective schedule %s: trip counts diverge across ranks; derive the bound from replicated data",
					renderTrace(trimTrace(ev, 4)))
			}
			continue
		}
		a.checkArms(fnName, b, a, "rank-dependent branch diverges the collective schedule",
			"every rank must execute the identical collective sequence")
	}
}

// checkArms reports b when the traces view assigns its successors disagree.
func (a *spmdFn) checkArms(fnName string, b *Block, view *spmdFn, what, rule string) {
	if len(b.Succs) < 2 {
		return
	}
	first := view.succContribution(b, b.Succs[0])
	for _, s := range b.Succs[1:] {
		c := view.succContribution(b, s)
		if !equalTraces(first, c) {
			path := witnessPath(fnName, first, c)
			a.p.ReportPathf(b.Pos, path, "%s: one path runs %s, another runs %s; %s",
				what, renderTrace(trimTrace(first, 6)), renderTrace(trimTrace(c, 6)), rule)
			return
		}
	}
}

func trimTrace(t []collEvent, n int) []collEvent {
	if len(t) <= n {
		return t
	}
	out := append([]collEvent{}, t[:n]...)
	return append(out, collEvent{name: fmt.Sprintf("+%d more", len(t)-n)})
}

var SPMD = &Check{
	Name: "spmd",
	Doc:  "rank-dependent branches must rejoin with identical collective traces; rank-dependent loop bounds must not enclose collectives",
	Run:  runSPMD,
}

func runSPMD(p *Pass) {
	if p.Path == parPath {
		return // audited runtime: implements the collectives
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := p.Prog.NodeOf(fn)
			if node == nil || node.eff[EffCollective] == nil {
				continue // no collective reachable from this function
			}
			taint := rankTaintedVars(p, fd)
			name := displayName(fn)
			a := newSpmdFn(p, fd, BuildCFG(fd.Body))
			a.checkBlocks(name, taint)
			// Literal bodies get their own CFGs; a rank-tainted branch
			// inside a closure diverges the schedule all the same.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					sub := a.child(BuildCFG(lit.Body))
					sub.checkBlocks(name+" literal", taint)
				}
				return true
			})
		}
	}
}
