// Package spmd is a paredlint fixture for the spmd check: rank-dependent
// branches must rejoin with identical collective traces, and rank-dependent
// loop bounds must not enclose collectives. Positives include divergence
// hidden two calls deep (the counterexample must surface both call paths);
// negatives include the symmetric rejoin idiom the single-site collective
// check cannot accept.
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

// okRootWork: rank-gated local work, then an unconditional collective.
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

// okMemberBranch: a membership branch on a Split result diverges by
// construction — the nil side has no subgroup schedule to compare. spmd
// delegates it to the collective check, which polices which comm each arm
// may use. No finding.
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
