// Package pared implements the distributed adaptive engine the paper's
// system is named after: each rank owns a set of refinement history trees,
// adapts them with conformal propagation across rank boundaries, and
// participates in the four repartitioning phases of Figure 2:
//
//	P0  the mesh is adapted (refined / coarsened) in parallel;
//	P1  each rank computes new vertex and edge weights of the coarse dual
//	    graph G for its trees;
//	P2  the weights are sent to the coordinating processor P_C (rank 0);
//	P3  P_C repartitions G and directs ranks to move refinement trees.
//
// Cross-rank conformity uses the deterministic split-edge protocol: a rank
// broadcasts the splits it performed on shard-boundary edges; receivers apply
// the ones that exist locally (retaining the rest) and rerun their closure;
// the loop repeats until a global all-reduce reports quiescence. Because
// vertex IDs and longest-edge choices are deterministic (see internal/forest),
// the fixed point equals the serial refinement of the same mesh.
package pared

import (
	"fmt"
	"sort"
	"time"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/par"
	"pared/internal/refine"
)

// Repartitioner computes a new assignment of coarse elements to ranks from
// the weighted coarse dual graph and the current assignment. core.Repartition
// (PNR) is the default; the experiment harness substitutes RSB or ML-KL here.
type Repartitioner func(g *graph.Graph, old []int32, p int) []int32

// Config tunes the engine. Mode alone selects the rebalance pipeline; every
// other field names the modes that read it.
type Config struct {
	// Mode selects the rebalance pipeline: ModePNR (default) funnels P2/P3
	// through the coordinator, ModeDistRefine replicates them with the
	// refinement sweep split across ranks, ModeSFC is the coordinator-free
	// space-filling-curve pipeline (see sfc.go) and ModeHier the node × core
	// pipeline (see hier.go).
	Mode RebalanceMode
	// Topology shapes the levels of ModeHier: the node × core factorization
	// of the rank count and the inter-node edge penalty. The zero value picks
	// the most balanced factorization and a penalty of 4. Read by ModeHier
	// only.
	Topology Topology
	// Repartition computes new assignments in P3 of ModePNR, on the
	// coordinator. Defaults to core.Repartition with the paper's parameters
	// and a persistent multilevel cache (core.Hierarchy), so epochs under
	// small weight drift reuse contraction hierarchies. Read by ModePNR only;
	// the other modes ignore it.
	Repartition Repartitioner
	// ImbalanceTrigger invokes repartitioning when the leaf-count imbalance
	// exceeds this fraction (default 0.05). Rebalance can also be forced.
	// Read by every mode.
	ImbalanceTrigger float64
	// Trace, if set, receives one line per engine phase with timings and
	// volumes (adapt rounds, weight-gather sizes, migration counts). Read by
	// every mode.
	Trace TraceFunc
}

func (c Config) withDefaults() Config {
	if c.ImbalanceTrigger <= 0 {
		c.ImbalanceTrigger = 0.05
	}
	return c
}

// rebalancer is one rebalance pipeline: phases P1–P3 of a Rebalance epoch,
// from this rank's trees to the new replicated owner map, with the phase
// durations. Each implementation owns the state it carries between epochs,
// and SetConfig builds it fresh, so nothing one pipeline cached can leak into
// another after a mode switch.
type rebalancer interface {
	rebalance(e *Engine, st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration)
}

// newRebalancer builds fresh state for the pipeline cfg.Mode selects.
func newRebalancer(cfg Config, c *par.Comm) rebalancer {
	switch cfg.Mode {
	case ModeSFC:
		return &sfcState{}
	case ModeHier:
		return newHierState(cfg.Topology, c)
	case ModeDistRefine:
		// Every rank runs Repartition on byte-identical inputs, so the
		// per-rank caches evolve identically and stay in lockstep without
		// any exchange.
		return &replicated{pnr: core.Config{Hierarchy: core.NewHierarchy(), DistRefine: c}}
	default:
		repart := cfg.Repartition
		if repart == nil {
			pnr := core.Config{Hierarchy: core.NewHierarchy()}
			repart = func(g *graph.Graph, old []int32, np int) []int32 {
				return core.Repartition(g, old, np, pnr)
			}
		}
		return &coordinator{repartition: repart}
	}
}

// ownerBuffers is a pipeline's owner-map double buffer: each epoch's map goes
// into the array Engine.Owner does not hold, so the outgoing map stays intact
// for the cut stats and migration that read it, and steady state cycles two
// arrays without allocating.
type ownerBuffers struct {
	buf  [2][]int32
	next int
}

// take returns the next buffer, resized to n.
func (o *ownerBuffers) take(n int) []int32 {
	b := o.buf[o.next]
	if cap(b) < n {
		b = make([]int32, n)
	}
	b = b[:n]
	o.buf[o.next] = b
	o.next ^= 1
	return b
}

// gfacet is a facet identified by global vertex IDs (sorted; [2] is the
// sentinel ^0 for 2D edges).
type gfacet [3]forest.VertexID

// Engine is one rank's view of the distributed computation.
type Engine struct {
	Comm   *par.Comm
	Coarse *mesh.Mesh
	// Owner maps every coarse element (tree) to its owning rank; replicated.
	Owner []int32
	// F holds this rank's trees.
	F *forest.Forest
	// R is the refiner over F.
	R *refine.Refiner

	cfg Config
	// shared is the conservative set of vertex IDs on (or ever on) the shard
	// boundary; splits of edges with both endpoints here are exchanged.
	shared map[forest.VertexID]bool
	// pending holds remote splits not yet applicable locally.
	pending map[refine.EdgeSplit]bool

	// reb is the rebalance pipeline Config.Mode selected, with its state.
	reb rebalancer

	// CheapSkips counts Rebalance(force=false) calls that returned after the
	// single fused imbalance probe, before any weight work (see Rebalance).
	CheapSkips int64
	// Phases accumulates this rank's wall time per repartitioning phase
	// across all Rebalance calls, for benchmark reports.
	Phases PhaseDurations
}

// PhaseDurations breaks rebalancing cost into the paper's phases: P1 local
// weight computation, P2 the weight gather, P3 repartitioning plus owner
// distribution and tree migration. Under ModeHier, HierA and HierB further
// split P3's repartitioning time into the node-level phase A and the
// intra-group phase B (both are contained in P3).
type PhaseDurations struct {
	P1, P2, P3   time.Duration
	HierA, HierB time.Duration
}

// tagFacets tags the P1 boundary-facet exchange (collectives use their own
// range).
const tagFacets par.Tag = 100

// New creates the engine on each rank: owner[i] gives the rank of coarse
// element i; the rank keeps only its own trees.
func New(c *par.Comm, coarseMesh *mesh.Mesh, owner []int32) *Engine {
	if len(owner) != coarseMesh.NumElems() {
		panic("pared: owner length must equal coarse element count")
	}
	e := &Engine{
		Comm:    c,
		Coarse:  coarseMesh,
		Owner:   append([]int32(nil), owner...),
		F:       forest.New(coarseMesh.Dim),
		shared:  make(map[forest.VertexID]bool),
		pending: make(map[refine.EdgeSplit]bool),
	}
	// Intern only the vertices of owned elements; IDs are the coarse indices.
	me := int32(c.Rank())
	for i, el := range coarseMesh.Elems {
		if owner[i] != me {
			continue
		}
		var vv [4]int32
		vv[3] = -1
		for k := 0; k < el.Nv(); k++ {
			v := el.V[k]
			vv[k] = e.F.InternVertex(forest.VertexID(v), coarseMesh.Verts[v])
		}
		e.F.AddRoot(int32(i), vv)
	}
	e.R = refine.NewRefiner(e.F)
	e.rebuildShared()
	e.SetConfig(Config{})
	return e
}

// SetConfig replaces the engine configuration and builds the selected
// pipeline's state fresh (call on every rank alike). It panics on a
// ModeHier topology that does not factor the rank count.
func (e *Engine) SetConfig(cfg Config) {
	e.cfg = cfg.withDefaults()
	e.reb = newRebalancer(e.cfg, e.Comm)
}

// Bootstrap computes an initial partition of the coarse mesh on the
// coordinator and broadcasts it; every rank then constructs its engine.
// This mirrors PARED's startup: "this mesh is loaded into a distinguished
// processor called the coordinator ... which computes an initial partition
// and distributes the mesh" (§2).
func Bootstrap(c *par.Comm, coarseMesh *mesh.Mesh) *Engine {
	return BootstrapWith(c, coarseMesh, Config{})
}

// rebuildShared recomputes the conservative shard-boundary vertex set from
// the facets of the current local leaves that have no local partner.
func (e *Engine) rebuildShared() {
	e.shared = make(map[forest.VertexID]bool)
	count := make(map[gfacet]int)
	e.eachLeafFacet(func(f gfacet, _ int32) { count[f]++ })
	for f, n := range count {
		if n == 1 {
			e.shared[f[0]] = true
			e.shared[f[1]] = true
			if f[2] != ^forest.VertexID(0) {
				e.shared[f[2]] = true
			}
		}
	}
}

// eachLeafFacet enumerates the facets of all local leaves as global-ID
// facets, with the leaf's root.
func (e *Engine) eachLeafFacet(fn func(f gfacet, root int32)) {
	e.F.VisitLeaves(func(id forest.NodeID) {
		n := e.F.Node(id)
		nv := n.Nv()
		for skip := 0; skip < nv; skip++ {
			var f gfacet
			f[2] = ^forest.VertexID(0)
			idx := 0
			for k := 0; k < nv; k++ {
				if k != skip {
					f[idx] = e.F.VIDs[n.Verts[k]]
					idx++
				}
			}
			sortGFacet(&f)
			fn(f, n.Root)
		}
	})
}

// lessGFacet orders facets lexicographically by global vertex IDs.
//
//pared:hotpath
func lessGFacet(a, b gfacet) bool {
	for k := 0; k < 3; k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

//pared:hotpath
func sortGFacet(f *gfacet) {
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
	if f[1] > f[2] {
		f[1], f[2] = f[2], f[1]
	}
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
}

// AdaptStats reports what a distributed adaptation did (per rank, with
// global fields identical on every rank).
type AdaptStats struct {
	// Rounds is the number of exchange rounds until global quiescence.
	Rounds int
	// LocalRefined and LocalCoarsened count this rank's operations.
	LocalRefined, LocalCoarsened int
	// GlobalLeaves is the total leaf count after adaptation.
	GlobalLeaves int64
}

// Adapt performs distributed conformal adaptation (phase P0): leaves with
// indicator above refineTol are refined, with split propagation across rank
// boundaries; if coarsenTol > 0, leaves below it are conformally coarsened
// (interface-touching groups are left alone — remote leaf usage of a shared
// midpoint cannot be checked locally, so the engine is conservative there).
func (e *Engine) Adapt(est refine.Estimator, refineTol, coarsenTol float64, maxLevel int32) AdaptStats {
	var st AdaptStats
	var targets []forest.NodeID
	e.F.VisitLeaves(func(id forest.NodeID) {
		if e.F.Node(id).Level < maxLevel && est.Indicator(e.F, id) > refineTol {
			targets = append(targets, id)
		}
	})
	for _, id := range targets {
		e.R.RefineLeaf(id)
	}
	for {
		st.Rounds++
		st.LocalRefined += e.R.Closure()
		// Collect and filter this round's splits: only shard-boundary edges
		// concern other ranks. Midpoints of shared edges become shared. Each
		// split travels as its two vertex-ID words (A, B).
		var out []int64
		for _, s := range e.R.TakeNewSplits() {
			if e.shared[s.A] && e.shared[s.B] {
				out = append(out, int64(s.A), int64(s.B))
				e.shared[forest.MidID(s.A, s.B)] = true
			}
		}
		// Exchange with every rank (p is small; neighbor filtering would cut
		// traffic but not change results).
		for from, words := range e.Comm.AllGatherInt64(out) {
			if from == e.Comm.Rank() {
				continue
			}
			for i := 0; i+1 < len(words); i += 2 {
				s := refine.EdgeSplit{A: forest.VertexID(words[i]), B: forest.VertexID(words[i+1])}
				if !e.R.IsSplit(s) {
					e.pending[s] = true
				}
			}
		}
		// Apply pending remote splits in sorted order: MarkSplitByID mutates
		// the refiner, so map-order iteration would make the refinement
		// history (and thus vertex numbering) run-dependent.
		pend := make([]refine.EdgeSplit, 0, len(e.pending))
		for s := range e.pending {
			pend = append(pend, s)
		}
		sort.Slice(pend, func(i, j int) bool {
			if pend[i].A != pend[j].A {
				return pend[i].A < pend[j].A
			}
			return pend[i].B < pend[j].B
		})
		applied := 0
		for _, s := range pend {
			if e.R.MarkSplitByID(s) {
				applied++
				delete(e.pending, s)
				e.shared[forest.MidID(s.A, s.B)] = true
			} else if e.R.IsSplit(s) {
				delete(e.pending, s)
			}
		}
		changed := int64(len(out)/2 + applied)
		if e.Comm.AllReduceSumInt64(changed) == 0 {
			break
		}
	}
	if coarsenTol > 0 {
		st.LocalCoarsened = e.R.Coarsen(func(id forest.NodeID) bool {
			n := e.F.Node(id)
			if n.Parent == forest.NoNode {
				return false
			}
			p := e.F.Node(n.Parent)
			if p.MidV >= 0 && e.shared[e.F.VIDs[p.MidV]] {
				return false // interface midpoint: remote usage unknown
			}
			return est.Indicator(e.F, id) < coarsenTol
		})
	}
	st.GlobalLeaves = e.Comm.AllReduceSumInt64(int64(e.F.NumLeaves()))
	if check.Enabled && e.F.NumLeaves() > 0 {
		// The distributed fixed point must leave every rank's leaf mesh
		// conformal — this is the property the split-exchange loop exists for.
		check.MeshConformal(e.F.LeafMesh().Mesh, "pared.Engine.Adapt")
	}
	e.trace("P0 adapt: %d rounds, +%d/-%d local elements, %d global leaves",
		st.Rounds, st.LocalRefined, st.LocalCoarsened, st.GlobalLeaves)
	return st
}

// Imbalance returns the global leaf-count imbalance max/avg − 1, computed
// from one fused (max, sum) reduction. Every rank derives the same float64
// from the same reduced integers, so decisions taken on the result need no
// further collective agreement.
//
//pared:hotpath
func (e *Engine) Imbalance() float64 {
	maxL, total := e.Comm.AllReduceMaxSum(int64(e.F.NumLeaves()))
	avg := float64(total) / float64(e.Comm.Size())
	//paredlint:allow floateq -- empty-mesh guard before division
	if avg == 0 {
		return 0
	}
	return float64(maxL)/avg - 1
}

// weightReport is a rank's P1 result: new vertex and edge weights of G for
// the trees (and tree pairs) it is responsible for.
type weightReport struct {
	Roots []int32 // owned roots
	VW    []int64 // leaf counts, parallel to Roots
	EdgeR []int32 // edge endpoints (r, s) with counted adjacency
	EdgeS []int32
	EdgeW []int64
}

// words packs the report flat, in the layout buildG decodes:
//
//	[nRoots, nEdges, (root, vw)×nRoots, (r, s, w)×nEdges]
func (rep weightReport) words() []int64 {
	out := make([]int64, 0, 2+2*len(rep.Roots)+3*len(rep.EdgeR))
	out = append(out, int64(len(rep.Roots)), int64(len(rep.EdgeR)))
	for i, r := range rep.Roots {
		out = append(out, int64(r), rep.VW[i])
	}
	for i := range rep.EdgeR {
		out = append(out, int64(rep.EdgeR[i]), int64(rep.EdgeS[i]), rep.EdgeW[i])
	}
	return out
}

// RebalanceStats reports a repartitioning step (identical on all ranks).
type RebalanceStats struct {
	// Ran is false if imbalance was below the trigger and force was false.
	Ran bool
	// MovedTrees and MovedElements count migrated trees and their leaves.
	MovedTrees, MovedElements int64
	// CutBefore and CutAfter are weighted coarse-graph cut sizes.
	CutBefore, CutAfter int64
	// InterCut and IntraCut decompose CutAfter in ModeHier: weight of edges
	// joining different node groups vs. different cores within one group.
	// Zero in other modes.
	InterCut, IntraCut int64
	// Imbalance is the post-step leaf imbalance.
	Imbalance float64
}

// Rebalance runs phases P1–P3 through the pipeline Config.Mode selected —
// compute weights, bring them together, repartition — and migrates trees.
// If force is false the step is skipped while imbalance is below the
// configured trigger; the skip is decided on the single fused imbalance
// probe alone — no weight computation, gather, or extra agreement collective
// happens first. force must be the same on every rank (the usual SPMD
// contract; all collectives here assume it anyway).
func (e *Engine) Rebalance(force bool) RebalanceStats {
	var st RebalanceStats
	imb := e.Imbalance()
	if !force && imb <= e.cfg.ImbalanceTrigger {
		// Every rank computed the same imbalance from the same fused
		// reduction, so everyone skips in lockstep.
		e.CheapSkips++
		st.Imbalance = imb
		e.trace("P1 skip: imbalance %.4f <= trigger %.4f (probe only, %d skips so far)",
			imb, e.cfg.ImbalanceTrigger, e.CheapSkips)
		return st
	}
	st.Ran = true

	newOwner, d1, d2, d3 := e.reb.rebalance(e, &st)

	// Migrate trees whose owner changed.
	var moved, movedElems int64
	dm := timed(func() { moved, movedElems = e.migrate(newOwner) })
	st.MovedTrees = e.Comm.AllReduceSumInt64(moved)
	st.MovedElements = e.Comm.AllReduceSumInt64(movedElems)
	e.Owner = newOwner
	if check.Enabled && e.F.NumLeaves() > 0 {
		check.MeshConformal(e.F.LeafMesh().Mesh, "pared.Engine.Rebalance")
	}
	st.Imbalance = e.Imbalance()
	e.Phases.P1 += d1
	e.Phases.P2 += d2
	e.Phases.P3 += d3 + dm
	e.trace("P3 repartition+migrate: cut %d->%d, sent %d trees (%d elements) in %v+%v, imbalance %.4f",
		st.CutBefore, st.CutAfter, moved, movedElems, d3, dm, st.Imbalance)
	return st
}

// localWeights computes this rank's contribution to G's weights: leaf counts
// for owned roots, adjacency counts for locally-visible pairs, and — via a
// pairwise facet exchange with lower-ranked peers — adjacency across rank
// boundaries.
func (e *Engine) localWeights() weightReport {
	var rep weightReport
	for _, r := range e.F.Roots() {
		rep.Roots = append(rep.Roots, r)
		rep.VW = append(rep.VW, int64(e.F.LeafCount(r)))
	}
	// Facets internal to the shard: count pairs between different local
	// trees; facets seen once are shard-boundary candidates for the exchange.
	first := make(map[gfacet]int32)
	pair := make(map[[2]int32]int64)
	e.eachLeafFacet(func(f gfacet, root int32) {
		if other, ok := first[f]; ok {
			if other != root {
				k := [2]int32{min32(other, root), max32(other, root)}
				pair[k]++
			}
			delete(first, f)
			return
		}
		first[f] = root
	})
	// What is left in first is this rank's boundary: emit it in sorted facet
	// order, one (facet words, root) quadruple per facet, so the exchange
	// payloads are byte-identical across runs.
	bkeys := make([]gfacet, 0, len(first))
	for f := range first {
		bkeys = append(bkeys, f)
	}
	sort.Slice(bkeys, func(i, j int) bool { return lessGFacet(bkeys[i], bkeys[j]) })
	boundary := make([]int64, 0, 4*len(bkeys))
	for _, f := range bkeys {
		boundary = append(boundary, int64(f[0]), int64(f[1]), int64(f[2]), int64(first[f]))
	}
	// Pairwise exchange: every rank sends its boundary list to all higher
	// ranks; the higher rank matches and owns the mixed pair counts.
	me := e.Comm.Rank()
	for dst := me + 1; dst < e.Comm.Size(); dst++ {
		e.Comm.Send(dst, tagFacets, boundary)
	}
	for src := 0; src < me; src++ {
		words, _ := e.Comm.Recv(src, tagFacets)
		for i := 0; i+3 < len(words); i += 4 {
			f := gfacet{forest.VertexID(words[i]), forest.VertexID(words[i+1]), forest.VertexID(words[i+2])}
			if r, ok := first[f]; ok {
				s := int32(words[i+3])
				k := [2]int32{min32(r, s), max32(r, s)}
				pair[k]++
			}
		}
	}
	keys := make([][2]int32, 0, len(pair))
	for k := range pair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		rep.EdgeR = append(rep.EdgeR, k[0])
		rep.EdgeS = append(rep.EdgeS, k[1])
		rep.EdgeW = append(rep.EdgeW, pair[k])
	}
	return rep
}

//pared:hotpath
func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

//pared:hotpath
func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// migrate sends trees to their new owners and splices in received ones,
// then rebuilds the refiner (edge incidence changed wholesale). Payloads
// travel as one flat wire buffer per destination (forest.EncodePayloads), so
// a migration lane costs one unboxed buffer instead of a pointer forest, and
// empty lanes send nothing.
func (e *Engine) migrate(newOwner []int32) (trees, elems int64) {
	me := int32(e.Comm.Rank())
	outgoing := make([][]*forest.TreePayload, e.Comm.Size())
	for _, r := range e.F.Roots() {
		if newOwner[r] != me {
			p := e.F.ExtractTree(r)
			outgoing[newOwner[r]] = append(outgoing[newOwner[r]], p)
			e.F.RemoveTree(r)
			trees++
			elems += int64(p.NumLeaves())
		}
	}
	send := make([][]byte, e.Comm.Size())
	for i := range send {
		if i != e.Comm.Rank() {
			send[i] = forest.EncodePayloads(outgoing[i])
		}
	}
	recv := e.Comm.AlltoallBytes(send)
	received := 0
	for from, buf := range recv {
		if from == e.Comm.Rank() {
			continue
		}
		ps, err := forest.DecodePayloads(buf)
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d migration payload from %d: %v", e.Comm.Rank(), from, err))
		}
		for _, p := range ps {
			e.F.InsertTree(p)
			received++
		}
	}
	if trees == 0 && received == 0 {
		// This rank's forest is untouched: rebuilding the refiner and the
		// shared-vertex set would reproduce them bit-for-bit. Skipping the
		// rebuild is decided on local knowledge only (what we sent plus what
		// arrived), so no extra collective and no symmetry requirement — a
		// no-op epoch costs just the (empty) exchange above.
		return 0, 0
	}
	e.F.CompactVertices() // reclaim orphans left by departed trees
	e.R = refine.NewRefiner(e.F)
	e.pending = make(map[refine.EdgeSplit]bool)
	e.rebuildShared()
	return trees, elems
}

// GatherForest reconstructs the full forest on the given root rank (nil on
// other ranks) — a verification utility for tests and the harness.
func (e *Engine) GatherForest(root int) *forest.Forest {
	var payloads []*forest.TreePayload
	for _, r := range e.F.Roots() {
		payloads = append(payloads, e.F.ExtractTree(r))
	}
	// Only the root lane carries anything: the trees travel in the
	// migration wire format (forest.EncodePayloads).
	send := make([][]byte, e.Comm.Size())
	send[root] = forest.EncodePayloads(payloads)
	recv := e.Comm.AlltoallBytes(send)
	if e.Comm.Rank() != root {
		return nil
	}
	g := forest.New(e.F.Dim)
	for from, buf := range recv {
		ps, err := forest.DecodePayloads(buf)
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d gather payload from %d: %v", root, from, err))
		}
		for _, p := range ps {
			g.InsertTree(p)
		}
	}
	return g
}

// CheckConsistency verifies cross-rank invariants (every tree owned exactly
// once, owner map agreement) and local refiner invariants. Intended for tests.
func (e *Engine) CheckConsistency() error {
	// Local faults must not short-circuit past the collectives below: a rank
	// returning early while the others enter them would deadlock (the spmd
	// check proves this schedule symmetric). Every rank receives every
	// rank's roots and fault, so all of them compute the same verdict.
	local := ""
	if err := e.R.CheckInvariants(); err != nil {
		local = err.Error()
	}
	me := int32(e.Comm.Rank())
	if local == "" {
		for _, r := range e.F.Roots() {
			if e.Owner[r] != me {
				local = fmt.Sprintf("rank %d holds tree %d owned by %d", me, r, e.Owner[r])
				break
			}
		}
	}
	lists := e.Comm.AllGatherInt32(e.F.Roots())
	send := make([][]byte, e.Comm.Size())
	for i := range send {
		send[i] = []byte(local)
	}
	for _, fault := range e.Comm.AlltoallBytes(send) {
		if len(fault) > 0 {
			return fmt.Errorf("pared: %s", fault)
		}
	}
	held := make([]int, e.Coarse.NumElems())
	for _, roots := range lists {
		for _, r := range roots {
			held[r]++
		}
	}
	for i, h := range held {
		if h != 1 {
			return fmt.Errorf("pared: tree %d held by %d ranks", i, h)
		}
	}
	return nil
}
