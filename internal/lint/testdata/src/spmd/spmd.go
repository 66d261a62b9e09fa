// Package spmd is a paredlint fixture for the spmd check: rank-dependent
// branches must rejoin with identical collective traces, rank-dependent
// loop bounds must not enclose collectives, and subgroup membership branches
// may differ only in the tested comm's collectives. Positives include
// divergence hidden two calls deep (the counterexample must surface both
// call paths) and collectives inside callback literals; negatives include
// the symmetric rejoin idiom a single-call-site check cannot accept.
package spmd

import "pared/internal/par"

// badGated: one arm runs [Barrier], the fallthrough runs nothing.
func badGated(c *par.Comm) {
	if c.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule"
		c.Barrier()
	}
}

// badAsymmetric: both arms synchronize, but the schedules differ.
func badAsymmetric(c *par.Comm, x []int64) {
	if c.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule"
		c.BcastInt64(0, x)
		c.Barrier()
	} else {
		c.Barrier()
	}
}

// badDeep is the interprocedural positive: the divergence is two calls deep
// on each side and only the trace summaries make it visible.
func badDeep(c *par.Comm, x []int64) {
	if c.Rank() == 0 { // want "one path runs .BcastInt64 via spmd.pathA->spmd.stepA.*another runs .Barrier via spmd.pathB"
		pathA(c, x)
	} else {
		pathB(c)
	}
}

func pathA(c *par.Comm, x []int64) { stepA(c, x) }

func stepA(c *par.Comm, x []int64) {
	c.BcastInt64(0, x)
	c.Barrier()
}

func pathB(c *par.Comm) { stepB(c) }

func stepB(c *par.Comm) { c.Barrier() }

// badLoop: rank r runs r GatherInt64s — the trip count is rank-dependent.
func badLoop(c *par.Comm) {
	for i := 0; i < c.Rank(); i++ { // want "rank-dependent loop bound encloses collective schedule"
		c.GatherInt64(0, []int64{int64(i)})
	}
}

// badEarlyReturn: ranks > 0 leave before the Barrier.
func badEarlyReturn(c *par.Comm) {
	if c.Rank() > 0 { // want "rank-dependent branch diverges the collective schedule"
		return
	}
	c.Barrier()
}

// badLoopEscape: a rank-gated return inside an event-free loop skips the
// Barrier after it.
func badLoopEscape(c *par.Comm, xs []int32) {
	me := int32(c.Rank())
	for _, x := range xs {
		if x == me { // want "rank-dependent branch diverges the collective schedule"
			return
		}
	}
	c.Barrier()
}

// okSymmetric: both arms run [BcastInt64] — root sends the plan, the rest
// send a placeholder. The schedules match even though the branch is
// rank-tainted.
func okSymmetric(c *par.Comm, plan []int64) []int64 {
	if c.Rank() == 0 {
		return c.BcastInt64(0, plan)
	}
	return c.BcastInt64(0, nil)
}

// okRootWork: rank-gated local work followed by an unconditional collective
// is the canonical correct pattern (engine P2/P3) — no finding.
func okRootWork(c *par.Comm, reps []int) []int32 {
	var plan []int32
	if c.Rank() == 0 {
		plan = []int32{int32(len(reps))}
	}
	return c.BcastInt32(0, plan)
}

// okSilentLoop: the loop bound is rank-tainted but no iteration emits
// collectives; every rank reaches the Barrier on the same schedule.
func okSilentLoop(c *par.Comm) int {
	sum := 0
	for i := 0; i < c.Rank(); i++ {
		sum += i
	}
	c.Barrier()
	return sum
}

// okLoopBreak: a rank-tainted break in an event-free loop — every exit
// continues into the same [Barrier] tail.
func okLoopBreak(c *par.Comm, xs []int32) {
	me := int32(c.Rank())
	for _, x := range xs {
		if x == me {
			break
		}
	}
	c.Barrier()
}

// okSharedHelper: both arms call the same helper; its internal data-dependent
// divergence summarizes to the same opaque event on both paths.
func okSharedHelper(c *par.Comm, hot bool) {
	if c.Rank() == 0 {
		maybeSync(c, hot)
	} else {
		maybeSync(c, hot)
	}
}

func maybeSync(c *par.Comm, hot bool) {
	if hot {
		c.Barrier()
	}
}

// badGatedSplit: Split is a collective on the parent comm; a rank-gated
// Split diverges the parent schedule like any other collective.
func badGatedSplit(c *par.Comm) {
	if c.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule"
		c.Split(0, 0)
	}
}

// okMemberBranch: a membership branch on a Split result diverges on the
// tested comm by construction — the nil side has no subgroup schedule. With
// sub's own collectives dropped both arms run [], so no finding.
func okMemberBranch(c *par.Comm, x []int64) {
	lcolor := int64(-1)
	if c.Rank()%2 == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub != nil {
		sub.AllGatherInt64(x)
	}
}

// okMemberEarlyReturn: the early-return membership form — members continue
// into the subgroup collective, excluded ranks leave. No finding.
func okMemberEarlyReturn(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank()%2 == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub == nil {
		return
	}
	sub.Barrier()
}

// gatedBranch: the root deadlocks everyone else.
func gatedBranch(c *par.Comm) {
	if c.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule: one path runs .Barrier., another runs .. .no collectives."
		c.Barrier()
	}
}

// gatedEarlyReturn: ranks > 0 leave before the collective.
func gatedEarlyReturn(c *par.Comm) {
	if c.Rank() > 0 { // want "rank-dependent branch diverges the collective schedule"
		return
	}
	c.Barrier()
}

// gatedLoop: rank r calls GatherInt64 r times — the counts diverge.
func gatedLoop(c *par.Comm) {
	me := c.Rank()
	for i := 0; i < me; i++ { // want "rank-dependent loop bound encloses collective schedule .GatherInt64."
		c.GatherInt64(0, []int64{int64(i)})
	}
}

// gatedIndirect is the interprocedural one-sided positive: the Barrier is two
// calls away and only the call graph makes the bug visible.
func gatedIndirect(c *par.Comm) {
	if c.Rank() == 0 { // want "one path runs .Barrier via spmd.doSync->spmd.deepSync., another runs .. .no collectives."
		doSync(c)
	}
}

func doSync(c *par.Comm) {
	deepSync(c)
}

func deepSync(c *par.Comm) {
	c.Barrier()
}

// okReplicated: reduction results are identical on every rank, so branching
// on them keeps the collective sequence in lockstep — no finding.
func okReplicated(c *par.Comm, doit int64) {
	if c.AllReduceSumInt64(doit) > 0 {
		c.Barrier()
	}
}

// okSizeLoop: Size() is the same on every rank — no finding.
func okSizeLoop(c *par.Comm) {
	for i := 0; i < c.Size(); i++ {
		c.BcastInt32(i, []int32{int32(i)})
	}
}

// gatedSplit: Split is itself a collective on the PARENT comm — every parent
// rank must call it (with whatever color), or the subgroup numbering
// exchange deadlocks the ranks that do.
func gatedSplit(c *par.Comm) {
	if c.Rank() == 0 { // want "one path runs .Split., another runs .. .no collectives."
		c.Split(0, 0)
	}
}

// badParentInMemberBranch: the membership guard admits collectives on the
// tested comm only. A collective on the PARENT comm inside the member arm
// deadlocks the excluded ranks, which never enter the branch.
func badParentInMemberBranch(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank() == 0 {
		lcolor = 0
	}
	leaders := c.Split(lcolor, 0)
	if leaders != nil { // want "subgroup membership branch on leaders diverges the collective schedule outside leaders: one path runs .Barrier."
		c.Barrier()
	}
}

// badNonMemberSide: the nil arm runs on the ranks OUTSIDE the subgroup — a
// parent collective there is gated on not being a member.
func badNonMemberSide(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank() == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub == nil { // want "subgroup membership branch on sub diverges the collective schedule outside sub"
		c.Barrier()
	}
}

// badRankGateInsideMember: a further rank test inside the member arm is
// rank-dependent WITHIN the subgroup; the membership exemption does not
// survive it. The membership branch itself is clean (its arms differ only
// on sub), so the one finding is the inner branch.
func badRankGateInsideMember(c *par.Comm) {
	sub := c.Split(int64(c.Rank()%2), 0)
	if sub != nil {
		if sub.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule: one path runs .Barrier."
			sub.Barrier()
		}
	}
}

// okLeaderBcast is the leader-comm idiom of the hierarchical engine: node
// groups split by rank-derived color, node leaders split into a leader comm
// (everyone else holds nil), and the leader-only collective sits inside the
// membership branch. Every rank holding the comm reaches it — no finding.
func okLeaderBcast(c *par.Comm, x []int64) {
	node := c.Split(int64(c.Rank()/2), 0)
	lcolor := int64(-1)
	if node.Rank() == 0 {
		lcolor = 0
	}
	leaders := c.Split(lcolor, int64(c.Rank()/2))
	if leaders != nil {
		leaders.AllGatherInt64(x)
	}
	node.BcastInt64(0, x)
}

// timed runs f once, like the engine's phase timer.
func timed(f func()) { f() }

// badCallbackGated: the Barrier sits in a callback literal; the literal runs
// at the call, so the rank gate around timed diverges the schedule.
func badCallbackGated(c *par.Comm) {
	if c.Rank() == 0 { // want "rank-dependent branch diverges the collective schedule: one path runs .Barrier., another runs .. .no collectives."
		timed(func() { c.Barrier() })
	}
}

// badParentAfterMemberReturn: `if sub == nil { return }` leaves only the
// members in the rest of the function; a PARENT collective there deadlocks
// the excluded ranks, which already returned.
func badParentAfterMemberReturn(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank()%2 == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub == nil { // want "subgroup membership branch on sub diverges the collective schedule outside sub: one path runs .. .no collectives., another runs .Barrier."
		return
	}
	c.Barrier()
}

// badHelperInMember: a helper reaching a collective from inside the member
// arm stays a finding — the helper may use any comm (here the parent).
func badHelperInMember(c *par.Comm) {
	sub := c.Split(int64(c.Rank()%2)-1, 0)
	if sub != nil { // want "subgroup membership branch on sub diverges the collective schedule outside sub: one path runs .Barrier via spmd.doSync->spmd.deepSync."
		doSync(c)
	}
}

// badParentInElseArm: the else arm of a `sub != nil` test is the non-member
// side; a parent collective there is gated on being excluded.
func badParentInElseArm(c *par.Comm) {
	sub := c.Split(int64(c.Rank()%2)-1, 0)
	if sub != nil { // want "subgroup membership branch on sub diverges the collective schedule outside sub"
		sub.Barrier()
	} else {
		c.Barrier()
	}
}

// hierComms holds the node and leader comms the way the hierarchical engine
// does, as struct fields (leaders is nil off-leader).
type hierComms struct {
	node, leaders *par.Comm
}

// okFieldGuard is the hier.go shape: a leader-only all-gather under a nil
// test on a struct field, then a node-wide broadcast — no finding.
func (h *hierComms) okFieldGuard(x []int64) []int64 {
	if h.leaders != nil {
		h.leaders.AllGatherInt64(x)
	}
	return h.node.BcastInt64(0, x)
}
