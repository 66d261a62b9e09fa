package pared

// The graph pipelines: ModePNR (the paper's coordinator) and ModeDistRefine
// (the same repartitioner with its refinement sweep split across ranks).
// Both repartition the weighted coarse dual graph G, whose topology is
// invariant for the run — adaptation changes weights, never the coarse
// adjacency — so G's CSR is built once from the replicated coarse mesh and
// ranks report only weight deltas (see deltaCache). ModeHier (hier.go)
// reuses the same delta machinery.

import (
	"fmt"
	"sort"
	"time"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/partition"
)

// graphWeights runs P1 of the graph pipelines: this rank's weight report,
// timed and traced (suffix tags the trace line with the pipeline).
func (e *Engine) graphWeights(suffix string) (rep weightReport, d1 time.Duration) {
	d1 = timed(func() { rep = e.localWeights() })
	e.trace("P1 weights: %d roots, %d edge pairs in %v%s", len(rep.Roots), len(rep.EdgeR), d1, suffix)
	return rep, d1
}

// coordinator is the ModePNR pipeline: weight deltas reach rank 0, which
// patches its cached G, repartitions it, and broadcasts back only the owner
// entries that changed.
type coordinator struct {
	cache       deltaCache // G on rank 0 only; every rank's last report
	repartition Repartitioner
}

func (p *coordinator) rebalance(e *Engine, st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration) {
	rep, d1 := e.graphWeights("")
	var deltas [][]int64
	var nd int
	d2 = timed(func() {
		delta := p.cache.report(e.Coarse.NumElems(), rep)
		nd = len(delta)
		deltas = e.Comm.GatherInt64(0, delta)
	})
	e.trace("P2 gather: %d delta words in %v", nd, d2)
	var ownerDelta []int32
	d3 = timed(func() {
		if e.Comm.Rank() == 0 {
			g := p.cache.fold(e.Coarse, deltas)
			st.CutBefore = partition.EdgeCut(g, e.Owner)
			newOwner = p.repartition(g, e.Owner, e.Comm.Size())
			st.CutAfter = partition.EdgeCut(g, newOwner)
			ownerDelta = packOwnerDelta(st.CutBefore, st.CutAfter, e.Owner, newOwner)
		}
		ownerDelta = e.Comm.BcastInt32(0, ownerDelta)
		if e.Comm.Rank() != 0 {
			newOwner, st.CutBefore, st.CutAfter = unpackOwnerDelta(e.Owner, ownerDelta)
		}
	})
	p.cache.assertPatched(e, rep)
	e.trace("P3 owner delta: %d moved entries", (len(ownerDelta)-ownerDeltaHeader)/2)
	return newOwner, d1, d2, d3
}

// replicated is the ModeDistRefine pipeline: there is no coordinator. P2 is
// an all-gather of the deltas, every rank patches its own copy of G (the
// deltas arrive in rank order, so the fold — and the copy — is identical
// everywhere), and P3 is a collective core.Repartition whose KL sweeps are
// rank-split and resolved deterministically (see core/distrefine.go). The
// owner map materializes byte-identical on every rank with nothing to
// broadcast back.
type replicated struct {
	cache deltaCache // G replicated on every rank
	pnr   core.Config
}

func (p *replicated) rebalance(e *Engine, st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration) {
	rep, d1 := e.graphWeights("")
	var deltas [][]int64
	var nd int
	d2 = timed(func() {
		delta := p.cache.report(e.Coarse.NumElems(), rep)
		nd = len(delta)
		deltas = e.Comm.AllGatherInt64(delta)
	})
	e.trace("P2 allgather: %d delta words in %v", nd, d2)
	d3 = timed(func() {
		g := p.cache.fold(e.Coarse, deltas)
		st.CutBefore = partition.EdgeCut(g, e.Owner)
		newOwner = core.Repartition(g, e.Owner, e.Comm.Size(), p.pnr)
		st.CutAfter = partition.EdgeCut(g, newOwner)
	})
	p.cache.assertPatched(e, rep)
	e.trace("P3 replicated repartition: no owner broadcast")
	return newOwner, d1, d2, d3
}

// deltaCache is a graph pipeline's incremental weight state: this rank's
// previous weight report (lastVW/lastEW, the baseline its next delta is
// computed against) and, on the ranks that fold deltas, the cached coarse
// dual graph g — topology from the replicated coarse mesh, weights
// accumulated from delta reports. Deltas are additive, so tree migration
// needs no special handling: a departed tree is reported as −last by the old
// owner and +current by the new one. The cache belongs to one pipeline and
// starts empty on every rank, so the first report is the full weights.
type deltaCache struct {
	g      *graph.Graph
	lastVW []int64
	lastEW map[[2]int32]int64
}

// report turns a full weight report into the incremental P2 payload: only
// the entries that changed since this rank's previous report, as additive
// int64 deltas. n is the coarse element count. Layout:
//
//	[nRoots, nEdges, (root, Δvw)×nRoots, (r, s, Δew)×nEdges]
//
// Deltas are against what THIS rank last reported (including −last for
// entries it no longer sees), so the folded running sums always equal the
// global weights regardless of how trees moved between ranks. Entries are
// emitted in ascending order, keeping the payload byte-stable across runs.
func (c *deltaCache) report(n int, rep weightReport) []int64 {
	if c.lastVW == nil {
		c.lastVW = make([]int64, n)
		c.lastEW = make(map[[2]int32]int64)
	}
	curVW := make([]int64, n)
	for i, r := range rep.Roots {
		curVW[r] = rep.VW[i]
	}
	var roots []int64
	for r := 0; r < n; r++ {
		if d := curVW[r] - c.lastVW[r]; d != 0 {
			roots = append(roots, int64(r), d)
			c.lastVW[r] = curVW[r]
		}
	}
	curEW := make(map[[2]int32]int64, len(rep.EdgeR))
	for i := range rep.EdgeR {
		curEW[[2]int32{rep.EdgeR[i], rep.EdgeS[i]}] = rep.EdgeW[i]
	}
	keys := make([][2]int32, 0, len(curEW)+len(c.lastEW))
	for k := range curEW {
		keys = append(keys, k)
	}
	for k := range c.lastEW {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	// Keys present in both maps appear twice; after sorting the duplicates are
	// adjacent, so the emit loop skips them.
	var edges []int64
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		if d := curEW[k] - c.lastEW[k]; d != 0 {
			edges = append(edges, int64(k[0]), int64(k[1]), d)
		}
	}
	c.lastEW = curEW
	out := make([]int64, 0, 2+len(roots)+len(edges))
	out = append(out, int64(len(roots)/2), int64(len(edges)/3))
	out = append(out, roots...)
	out = append(out, edges...)
	return out
}

// fold returns the cached G with all ranks' deltas (indexed by rank) applied.
// The topology is built once from the replicated coarse mesh — G's adjacency
// is invariant for the run, because adaptation only changes how many leaf
// pairs realize each coarse facet, never which coarse elements share one —
// and only the weights are patched thereafter.
func (c *deltaCache) fold(coarse *mesh.Mesh, deltas [][]int64) *graph.Graph {
	if c.g == nil {
		full := graph.FromDual(coarse)
		c.g = &graph.Graph{
			Xadj: full.Xadj,
			Adj:  full.Adj,
			VW:   make([]int64, full.N()),
			EW:   make([]int64, len(full.Adj)),
		}
	}
	g := c.g
	for rank := 0; rank < len(deltas); rank++ {
		d := deltas[rank]
		nr, ne := int(d[0]), int(d[1])
		d = d[2:]
		for i := 0; i < nr; i++ {
			g.VW[d[2*i]] += d[2*i+1]
		}
		d = d[2*nr:]
		for i := 0; i < ne; i++ {
			r, s, dw := int32(d[3*i]), int32(d[3*i+1]), d[3*i+2]
			patchEdge(g, r, s, dw)
			patchEdge(g, s, r, dw)
		}
	}
	return g
}

// patchEdge adds dw to the directed CSR slot (u → v), located by binary
// search in u's ascending adjacency row. A missing slot means a rank reported
// adjacency the coarse mesh does not have — the topology invariance the whole
// incremental pipeline rests on is broken — so it panics loudly.
//
//pared:hotpath
func patchEdge(g *graph.Graph, u, v int32, dw int64) {
	lo, hi := g.Xadj[u], g.Xadj[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= g.Xadj[u+1] || g.Adj[lo] != v {
		panic(fmt.Sprintf("pared: weight delta for (%d,%d) but the coarse mesh has no such adjacency", u, v))
	}
	g.EW[lo] += dw
}

// assertPatched cross-checks, under paredassert, that rank 0's patched G is
// byte-identical to the graph built from scratch out of full weight reports —
// the correctness contract of the incremental pipeline. The extra gather
// runs on every rank (check.Enabled is a build-wide constant, so the
// collective order stays consistent).
func (c *deltaCache) assertPatched(e *Engine, rep weightReport) {
	if !check.Enabled {
		return
	}
	reports := e.Comm.GatherInt64(0, rep.words())
	if e.Comm.Rank() != 0 {
		return
	}
	ref := buildG(e.Coarse.NumElems(), reports)
	g := c.g
	check.Assertf(len(ref.Xadj) == len(g.Xadj) && len(ref.Adj) == len(g.Adj),
		"pared: patched G shape differs from scratch build (%d/%d vs %d/%d)",
		len(g.Xadj), len(g.Adj), len(ref.Xadj), len(ref.Adj))
	for i := range ref.Xadj {
		check.Assertf(g.Xadj[i] == ref.Xadj[i], "pared: patched G Xadj[%d] = %d, scratch %d", i, g.Xadj[i], ref.Xadj[i])
	}
	for i := range ref.Adj {
		check.Assertf(g.Adj[i] == ref.Adj[i], "pared: patched G Adj[%d] = %d, scratch %d", i, g.Adj[i], ref.Adj[i])
		check.Assertf(g.EW[i] == ref.EW[i], "pared: patched G EW[%d] = %d, scratch %d", i, g.EW[i], ref.EW[i])
	}
	for i := range ref.VW {
		check.Assertf(g.VW[i] == ref.VW[i], "pared: patched G VW[%d] = %d, scratch %d", i, g.VW[i], ref.VW[i])
	}
}

// buildG assembles the coarse dual graph from scratch out of all ranks' full
// weight reports, each in the weightReport.words layout: the reference the
// patched G is checked against (assertPatched, and the incremental-pipeline
// tests).
func buildG(numRoots int, reports [][]int64) *graph.Graph {
	b := graph.NewBuilder(numRoots)
	for _, w := range reports {
		nr, ne := int(w[0]), int(w[1])
		w = w[2:]
		for i := 0; i < nr; i++ {
			b.SetVW(int32(w[2*i]), w[2*i+1])
		}
		w = w[2*nr:]
		for i := 0; i < ne; i++ {
			b.AddEdge(int32(w[3*i]), int32(w[3*i+1]), w[3*i+2])
		}
	}
	return b.Build()
}

// ownerDeltaHeader is the number of int32 words before the (index, owner)
// pairs in the P3 owner-delta payload: two int64 cut values split hi/lo.
const ownerDeltaHeader = 4

// packOwnerDelta encodes the repartitioning outcome as the cut values plus
// only the owner entries that changed; every rank replicates the old owner
// map, so that is all a broadcast needs to carry.
func packOwnerDelta(cutBefore, cutAfter int64, old, newOwner []int32) []int32 {
	out := make([]int32, ownerDeltaHeader, ownerDeltaHeader+16)
	out[0], out[1] = int32(cutBefore>>32), int32(cutBefore)
	out[2], out[3] = int32(cutAfter>>32), int32(cutAfter)
	for i := range newOwner {
		if newOwner[i] != old[i] {
			out = append(out, int32(i), newOwner[i])
		}
	}
	return out
}

// unpackOwnerDelta reconstructs the new owner map (a fresh slice) and cut
// values from a packOwnerDelta payload and the local copy of the old map.
func unpackOwnerDelta(old []int32, payload []int32) (newOwner []int32, cutBefore, cutAfter int64) {
	cutBefore = int64(payload[0])<<32 | int64(uint32(payload[1]))
	cutAfter = int64(payload[2])<<32 | int64(uint32(payload[3]))
	newOwner = append([]int32(nil), old...)
	for i := ownerDeltaHeader; i < len(payload); i += 2 {
		newOwner[payload[i]] = payload[i+1]
	}
	return newOwner, cutBefore, cutAfter
}
