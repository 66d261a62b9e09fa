package pared

import (
	"math"
	"runtime"
	"testing"

	"pared/internal/core"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
)

// epochRecord captures everything an epoch's rebalance decided, for exact
// comparison between pipeline variants.
type epochRecord struct {
	Ran                  bool
	Owner                []int32
	CutBefore, CutAfter  int64
	MovedTrees, MovedEls int64
}

// runChain drives a 10-epoch adapt/rebalance chain on p ranks, each rank's
// engine bootstrapped under its own cfg() (so per-run state such as a
// core.Hierarchy is never shared between runs), and returns rank 0's
// per-epoch records plus the final canonical leaf list.
func runChain(t *testing.T, p int, cfg func() Config) ([]epochRecord, [][4]forest.VertexID) {
	t.Helper()
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	var recs []epochRecord
	var leaves [][4]forest.VertexID
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, cfg())
		for epoch := 0; epoch < 10; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			st := e.Rebalance(epoch%3 != 2) // mix forced and trigger-gated epochs
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				recs = append(recs, recordEpoch(st, e.Owner))
			}
		}
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			leaves = g.CanonicalLeaves()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, leaves
}

// recordEpoch captures a rebalance outcome with a private copy of the owner
// map.
func recordEpoch(st RebalanceStats, owner []int32) epochRecord {
	return epochRecord{
		Ran:       st.Ran,
		Owner:     append([]int32(nil), owner...),
		CutBefore: st.CutBefore, CutAfter: st.CutAfter,
		MovedTrees: st.MovedTrees, MovedEls: st.MovedElements,
	}
}

// pnrConfig returns a ModePNR configuration whose coordinator runs
// core.Repartition under pnr: how a test reaches the core knobs.
func pnrConfig(pnr core.Config) Config {
	return Config{Repartition: func(g *graph.Graph, old []int32, np int) []int32 {
		return core.Repartition(g, old, np, pnr)
	}}
}

func compareChains(t *testing.T, label string, a, b []epochRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d epochs", label, len(a), len(b))
	}
	for ep := range a {
		x, y := a[ep], b[ep]
		if x.Ran != y.Ran || x.CutBefore != y.CutBefore || x.CutAfter != y.CutAfter ||
			x.MovedTrees != y.MovedTrees || x.MovedEls != y.MovedEls {
			t.Fatalf("%s: epoch %d stats diverge: %+v vs %+v", label, ep, x, y)
		}
		for i := range x.Owner {
			if x.Owner[i] != y.Owner[i] {
				t.Fatalf("%s: epoch %d owner[%d] = %d vs %d", label, ep, i, x.Owner[i], y.Owner[i])
			}
		}
	}
}

// TestIncrementalMatchesScratchDriftAlways is the equivalence contract of the
// incremental pipeline: with the hierarchy drift trigger firing on every call
// (RematchEvery = 1), every epoch of a 10-epoch adapt/rebalance chain through
// the delta-report, patched-graph, delta-owner path must produce the owner
// map, cut values and migration counts of the scratch reference the test
// builds itself — full weight reports gathered at rank 0, G rebuilt with
// buildG, and a cache-less core.Repartition.
func TestIncrementalMatchesScratchDriftAlways(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	var inc, ref []epochRecord
	err := par.Run(p, func(c *par.Comm) {
		e := Bootstrap(c, m)
		e.SetConfig(pnrConfig(core.Config{Hierarchy: core.NewHierarchy(), RematchEvery: 1}))
		for epoch := 0; epoch < 10; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			reports := c.GatherInt64(0, e.localWeights().words())
			var want epochRecord
			if c.Rank() == 0 {
				g := buildG(m.NumElems(), reports)
				owner := core.Repartition(g, e.Owner, p, core.Config{})
				want = epochRecord{
					Ran:       true,
					Owner:     owner,
					CutBefore: partition.EdgeCut(g, e.Owner),
					CutAfter:  partition.EdgeCut(g, owner),
				}
				for i := range owner {
					if owner[i] != e.Owner[i] {
						want.MovedTrees++
						want.MovedEls += g.VW[i]
					}
				}
			}
			st := e.Rebalance(epoch%3 != 2) // mix forced and trigger-gated epochs
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if c.Rank() == 0 && st.Ran {
				inc = append(inc, recordEpoch(st, e.Owner))
				ref = append(ref, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proved nothing")
	}
	compareChains(t, "incremental vs scratch reference", inc, ref)
}

// TestIncrementalDriftNeverDeterministic pins the other end of the drift
// spectrum: with rebuilds suppressed entirely the pipeline leans fully on
// cached hierarchies and patched weights, and must still be byte-identical
// across repeated runs and GOMAXPROCS settings, keep every cross-rank
// invariant, and reproduce the serial reference mesh.
func TestIncrementalDriftNeverDeterministic(t *testing.T) {
	const p = 4
	cfg := func() Config {
		return pnrConfig(core.Config{Hierarchy: core.NewHierarchy(), RematchEvery: math.MaxInt32, DriftFrac: math.Inf(1)})
	}
	base, baseLeaves := runChain(t, p, cfg)
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		again, leaves := runChain(t, p, cfg)
		runtime.GOMAXPROCS(old)
		compareChains(t, "drift-never rerun", base, again)
		if len(leaves) != len(baseLeaves) {
			t.Fatalf("GOMAXPROCS=%d: leaf count changed", procs)
		}
	}
	// Adaptation is partition-independent, so the distributed mesh must
	// equal the serial refinement of the same schedule even when every
	// rebalance ran on cached hierarchies.
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	want := serialReference(m, cornerEst(geom.Vec3{X: 1, Y: 1}), 0.8, 7, 10)
	if len(baseLeaves) != len(want) {
		t.Fatalf("distributed %d leaves, serial reference %d", len(baseLeaves), len(want))
	}
	for i := range want {
		if baseLeaves[i] != want[i] {
			t.Fatalf("leaf %d differs from serial reference", i)
		}
	}
}

// TestRebalanceCheapSkipDoesNoWeightWork proves satellite (b): a skipped
// Rebalance(force=false) must stop at the fused imbalance probe. The counter
// records the skip, and the coordinator's delta cache still being empty is
// white-box proof that the P1 weight computation and P2 gather never ran on
// any rank.
func TestRebalanceCheapSkipDoesNoWeightWork(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		for i := 0; i < 3; i++ {
			// The bootstrap partition of a uniform mesh is balanced: every
			// trigger-gated call must take the cheap skip.
			st := e.Rebalance(false)
			if st.Ran {
				panic("balanced mesh still rebalanced")
			}
		}
		if e.CheapSkips != 3 {
			panic("skip counter did not record the cheap skips")
		}
		cache := &e.reb.(*coordinator).cache
		if cache.lastVW != nil {
			panic("skip path touched the weight-report machinery")
		}
		st := e.Rebalance(true)
		if !st.Ran || cache.lastVW == nil {
			panic("forced rebalance should run the full pipeline")
		}
		if e.CheapSkips != 3 {
			panic("forced rebalance miscounted as a skip")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
