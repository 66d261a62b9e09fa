// Package scratchalias is a paredlint fixture for the scratchalias check:
// *Scratch work buffers are strictly sequential.
package scratchalias

import (
	"pared/internal/kern"
	"pared/internal/par"
)

// workScratch follows the project convention: a named type ending in
// "Scratch" bundles caller-owned, sequential work buffers.
type workScratch struct {
	buf []float64
	ids []int32
}

// capturedByKern shares one scratch across concurrently-running chunks.
func capturedByKern(s *workScratch, xs []float64) {
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.buf[i] = xs[i] // want "scratch s captured by a kern body"
		}
	})
}

// capturedByGo shares a scratch with a raw goroutine.
func capturedByGo(s *workScratch) {
	done := make(chan struct{})
	go func() {
		s.buf[0] = 1 // want "scratch s captured by a goroutine closure"
		close(done)
	}()
	<-done
}

// sentAcrossRanks ships scratch-owned ids through a broadcast; payloads
// travel by reference, so every receiver would alias this rank's buffers.
func sentAcrossRanks(c *par.Comm, s *workScratch) {
	c.BcastInt32(0, s.ids) // want "scratch s sent across ranks via .*Bcast"
}

// fill2 pretends to use two independent scratches.
func fill2(dst, aux *workScratch) {
	_ = dst
	_ = aux
}

// doubled passes one scratch for both: the callees scribble over each other.
func doubled(s *workScratch) {
	fill2(s, s) // want "scratch s passed twice in one call"
}

// sharedScratch is package-level scratch a helper touches.
var sharedScratch workScratch

func touch() { refill() }

func refill() { sharedScratch.buf = sharedScratch.buf[:0] }

// indirectGlobal is the interprocedural positive: the kern body reaches the
// package-level scratch only through the call graph (body → touch → refill).
func indirectGlobal(xs []float64) {
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			touch() // want "reaches package-level scratch sharedScratch"
		}
	})
}

// okSequentialReuse is the whole point of the convention: one scratch reused
// across sequential calls — no finding.
func okSequentialReuse(xs []float64) {
	var s workScratch
	for i := 0; i < 4; i++ {
		fill2(&s, nil)
	}
	_ = xs
}

// okPlainClosure captures a scratch in a closure that runs sequentially on
// the caller — no finding.
func okPlainClosure(s *workScratch) func() int {
	return func() int { return len(s.buf) }
}

// exchScratch mirrors the distributed-refinement scratch: lane buffers that
// feed the typed all-gather collectives each sweep round.
type exchScratch struct {
	lanes    []int64
	views    [][]int64
	gathered []int64
}

// sentViaTypedGather ships scratch-owned lanes through an all-gather — same
// rule as the broadcast above.
func sentViaTypedGather(c *par.Comm, s *exchScratch) {
	_ = c.AllGatherInt64(s.lanes) // want "scratch s sent across ranks via .*AllGatherInt64"
}

// sentViaMovesGather covers the move-exchange collective added for the
// distributed refinement sweep.
func sentViaMovesGather(c *par.Comm, s *exchScratch, views [][]int64, out []int64) []int64 {
	return c.AllGatherMoves(s.lanes, views, out) // want "scratch s sent across ranks via .*AllGatherMoves"
}

// outerScratch nests a scratch inside a scratch (the klScratch.dist idiom):
// the nested field is itself a named *Scratch type, so handing it to a
// concurrent body is flagged through either name.
type outerScratch struct {
	dist exchScratch
}

// nestedCapturedByKern captures the nested scratch in a kern body.
func nestedCapturedByKern(o *outerScratch, xs []int64) {
	d := &o.dist
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d.lanes[i] = xs[i] // want "scratch d captured by a kern body"
		}
	})
}

// okNestedSequential reuses the nested scratch sequentially — no finding.
func okNestedSequential(o *outerScratch) {
	d := &o.dist
	d.lanes = d.lanes[:0]
}
