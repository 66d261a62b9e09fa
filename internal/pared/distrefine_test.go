package pared

import (
	"testing"

	"pared/internal/core"
)

// distSerialCfg builds a coordinator-pipeline config whose rank-0
// repartitioner runs the SAME distributed sweep through the single-rank
// Serial exchanger — the engine-level reference for ModeDistRefine: the
// symmetric replicated pipeline (all-gathered deltas, collective
// repartition, no owner broadcast) must land on byte-identical owner maps.
func distSerialCfg() Config {
	return pnrConfig(core.Config{DistRefine: core.Serial, Hierarchy: core.NewHierarchy()})
}

// TestEngineDistRefineMatchesCoordinator is the engine-level byte-identity
// contract of ModeDistRefine: a 10-epoch adapt/rebalance chain through the
// replicated pipeline (every rank patches its own graph copy and enters the
// collective repartition) must reproduce the coordinator pipeline running
// the identical sweep serially on rank 0 — same owner maps, cuts and
// migration counts every epoch.
func TestEngineDistRefineMatchesCoordinator(t *testing.T) {
	const p = 4
	dist, distLeaves := runChain(t, p, func() Config { return Config{Mode: ModeDistRefine} })
	ref, refLeaves := runChain(t, p, distSerialCfg)
	compareChains(t, "distrefine vs coordinator", dist, ref)
	if len(distLeaves) != len(refLeaves) {
		t.Fatalf("final leaf counts differ: %d vs %d", len(distLeaves), len(refLeaves))
	}
	for i := range distLeaves {
		if distLeaves[i] != refLeaves[i] {
			t.Fatalf("final leaf %d differs", i)
		}
	}
	ran := 0
	for _, r := range dist {
		if r.Ran {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proved nothing")
	}
}
