package pared

import (
	"runtime"
	"testing"

	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition/sfc"
)

// curveOrder is the Hilbert curve order of m's coarse elements — the order
// the SFC pipeline's bands follow.
func curveOrder(m *mesh.Mesh) []int32 {
	order, _ := sfc.Order(sfc.Keys(m, sfc.Hilbert))
	return order
}

// TestSFCDeterministicAcrossGOMAXPROCS is the acceptance criterion: the
// 10-epoch SFC chain (SFC bootstrap, SFC rebalance every epoch) must leave a
// band-form owner map after every rebalance, produce byte-identical owner
// maps, cut values and migration counts for GOMAXPROCS 1, 2 and 8, and the
// adapted mesh must still equal the serial refinement of the same schedule.
func TestSFCDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const p = 4
	cfg := func() Config { return Config{Mode: ModeSFC} }
	base, baseLeaves := runChain(t, p, cfg)
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	order := curveOrder(m)
	ran := 0
	for ep, r := range base {
		if r.Ran {
			ran++
			if !bandForm(order, r.Owner) {
				t.Fatalf("epoch %d: SFC rebalance left a non-band-form owner map", ep)
			}
		}
	}
	if ran == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proves nothing")
	}
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		again, leaves := runChain(t, p, cfg)
		runtime.GOMAXPROCS(old)
		compareChains(t, "sfc rerun", base, again)
		if len(leaves) != len(baseLeaves) {
			t.Fatalf("GOMAXPROCS=%d: leaf count changed", procs)
		}
		for i := range leaves {
			if leaves[i] != baseLeaves[i] {
				t.Fatalf("GOMAXPROCS=%d: leaf %d differs", procs, i)
			}
		}
	}
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

// TestSFCScanMatchesSerialAssign is the equivalence contract of the
// distributed scan: every forced epoch's engine-produced owner map must be
// byte-identical to the serial sfc.Assign computed from the complete weight
// vector (gathered only by the test) and the pre-epoch owner map. This pins
// the ExclusiveScan offset, the band arithmetic, the snapping, and the delta
// exchange in one comparison.
func TestSFCScanMatchesSerialAssign(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeSFC})
		order := curveOrder(m)
		var scratch sfc.AssignScratch
		for epoch := 0; epoch < 6; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			// Reference inputs, captured before the engine mutates anything:
			// the full weight vector and the current owner map.
			old := append([]int32(nil), e.Owner...)
			vw := gatherWeights(e)
			e.Rebalance(true)
			want := sfc.Assign(order, vw, old, p, true, nil, &scratch)
			for i := range want {
				if e.Owner[i] != want[i] {
					panic("engine owner diverges from serial sfc.Assign")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSFCModeSwitchFallback covers the one legal way to enter SFC mode with
// a non-band-form owner map: bootstrap under the PNR coordinator, then
// switch. The first SFC epoch must take the full-weights fallback, produce a
// valid band-form partition within the snapped band bound, and leave the
// chain on the scan path.
func TestSFCModeSwitchFallback(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	order := curveOrder(m)
	err := par.Run(p, func(c *par.Comm) {
		e := Bootstrap(c, m) // PNR bootstrap: owner not curve-contiguous
		e.SetConfig(Config{Mode: ModeSFC})
		e.Adapt(est, 0.8, 0, 7)
		if bandForm(order, e.Owner) {
			panic("test premise broken: PNR bootstrap is already band form")
		}
		for epoch := 0; epoch < 4; epoch++ {
			e.Rebalance(true)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if !bandForm(order, e.Owner) {
				panic("SFC epoch did not restore band form")
			}
			checkBandBound(e)
			e.Adapt(est, 0.8, 0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSFCWeightedCutsFallback pins the cut points of the non-band-form
// fallback epoch: after a PNR bootstrap and a switch to SFC, the one forced
// epoch must cut the curve exactly where the serial sfc.Assign cuts it from
// the complete weight vector and the pre-epoch owner map, restore band form,
// keep every cross-rank invariant, and land the heaviest rank within the
// snapped W/p + 2·maxw bound.
func TestSFCWeightedCutsFallback(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	order := curveOrder(m)
	err := par.Run(p, func(c *par.Comm) {
		e := Bootstrap(c, m) // PNR bootstrap: owner not curve-contiguous
		e.SetConfig(Config{Mode: ModeSFC})
		e.Adapt(est, 0.8, 0, 7)
		if bandForm(order, e.Owner) {
			panic("test premise broken: PNR bootstrap is already band form")
		}
		old := append([]int32(nil), e.Owner...)
		vw := gatherWeights(e)
		e.Rebalance(true)
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		if !bandForm(order, e.Owner) {
			panic("weighted-cuts fallback did not restore band form")
		}
		var scratch sfc.AssignScratch
		want := sfc.Assign(order, vw, old, p, true, nil, &scratch)
		for i := range want {
			if e.Owner[i] != want[i] {
				panic("fallback owner diverges from serial sfc.Assign")
			}
		}
		checkBandBound(e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherWeights returns the complete per-root leaf-count vector, gathered
// from every rank's owned trees. Collective; call on every rank.
func gatherWeights(e *Engine) []int64 {
	pairs := make([]int64, 0, 2*len(e.F.Roots()))
	for _, r := range e.F.Roots() {
		pairs = append(pairs, int64(r), int64(e.F.LeafCount(r)))
	}
	vw := make([]int64, len(e.Owner))
	for _, src := range e.Comm.AllGatherInt64(pairs) {
		for i := 0; i < len(src); i += 2 {
			vw[src[i]] = src[i+1]
		}
	}
	return vw
}

// TestSFCImbalanceBound checks the paper-style balance guarantee end to end:
// after a forced SFC rebalance of an adapt-skewed mesh, the leaf imbalance
// must satisfy max ≤ avg + 2·maxTreeLeaves (the snapped band bound divided
// through by the band count).
func TestSFCImbalanceBound(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeSFC})
		for epoch := 0; epoch < 5; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
		}
		e.Rebalance(true)
		checkBandBound(e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkBandBound panics unless the heaviest rank's leaf count satisfies
// max ≤ avg + 2·maxTreeLeaves: the snapped band bound divided through by the
// band count. Collective; call on every rank.
func checkBandBound(e *Engine) {
	var maxTree int64
	for r := int32(0); r < int32(len(e.Owner)); r++ {
		// Owner maps are replicated and leaf counts travel with the trees, so
		// the max over owned trees + an all-reduce gives the global max.
		if e.Owner[r] == int32(e.Comm.Rank()) {
			if n := int64(e.F.LeafCount(r)); n > maxTree {
				maxTree = n
			}
		}
	}
	maxTree, _ = e.Comm.AllReduceMaxSum(maxTree)
	maxLocal, total := e.Comm.AllReduceMaxSum(int64(e.F.NumLeaves()))
	avg := total / int64(e.Comm.Size())
	if maxLocal > avg+2*maxTree+1 {
		panic("snapped SFC band exceeds the W/p + 2·maxw bound")
	}
}
