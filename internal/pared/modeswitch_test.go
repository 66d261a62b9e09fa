package pared

import (
	"fmt"
	"runtime"
	"testing"

	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// TestModeSwitchWalk drives one engine through every pipeline and back —
// pnr → distrefine → hier → sfc → pnr → hier → pnr, two adapt/rebalance
// epochs per leg — with CheckConsistency after every epoch, and requires the
// owner maps of the whole walk to be byte-identical across GOMAXPROCS 1, 2
// and 8. Each SetConfig must start the new pipeline from fresh state: a
// delta cache left behind by the coordinator (whose G lives on rank 0 only)
// would leave the replicated pipelines folding deltas into an empty graph on
// the other ranks, and the pnr → distrefine and pnr → hier legs would then
// diverge or deadlock in the collective sweep.
func TestModeSwitchWalk(t *testing.T) {
	walk := []RebalanceMode{ModePNR, ModeDistRefine, ModeHier, ModeSFC, ModePNR, ModeHier, ModePNR}
	run := func() [][]int32 {
		m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
		est := cornerEst(geom.Vec3{X: 1, Y: 1})
		var owners [][]int32
		err := par.Run(4, func(c *par.Comm) {
			e := Bootstrap(c, m)
			for leg, mode := range walk {
				e.SetConfig(Config{Mode: mode})
				for epoch := 0; epoch < 2; epoch++ {
					e.Adapt(est, 0.8, 0, 4+int32(leg))
					st := e.Rebalance(true)
					if !st.Ran {
						panic("forced rebalance did not run")
					}
					if err := e.CheckConsistency(); err != nil {
						panic(fmt.Sprintf("leg %d (mode %d) epoch %d: %v", leg, mode, epoch, err))
					}
					if c.Rank() == 0 {
						owners = append(owners, append([]int32(nil), e.Owner...))
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return owners
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first [][]int32
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		owners := run()
		if len(owners) != 2*len(walk) {
			t.Fatalf("GOMAXPROCS=%d: %d epochs recorded, want %d", procs, len(owners), 2*len(walk))
		}
		if first == nil {
			first = owners
			continue
		}
		for ep := range first {
			for i := range first[ep] {
				if owners[ep][i] != first[ep][i] {
					t.Fatalf("GOMAXPROCS=%d: epoch %d owner[%d] = %d, GOMAXPROCS=1 had %d",
						procs, ep, i, owners[ep][i], first[ep][i])
				}
			}
		}
	}
}
