package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/par"
	"pared/internal/pared"
)

// counts are the deterministic outcomes of a run: the same code on the same
// workload and seed must reproduce every field exactly, traced or not.
type counts struct {
	FinalLeaves   int64
	LeavesSum     int64 // global leaves after each Adapt call, summed
	AdaptCalls    int64
	AdaptRounds   int64
	Refined       int64 // over all ranks
	Coarsened     int64
	RebalanceLeaf int64 // global leaves present at each Rebalance call, summed
	Rebalances    int64 // Rebalance calls that ran
	Skipped       int64
	Moved         int64 // elements migrated
	MovedTrees    int64
	CutBeforeSum  int64 // over the rebalances that ran
	CutSum        int64
	Solves        int64
	CGIters       int64
	ImbalanceSum  float64 // post-rebalance imbalance, summed over the rebalances that ran
	ImbalanceMax  float64
	ErrLinf       float64 // mean L∞ error of the solves, or of the final mesh without a solve
}

// runResult is what one isolated run reports to the parent process.
type runResult struct {
	Workload    string
	Path        int
	Traced      bool
	Ranks       int
	NumCPU      int
	GOMAXPROCS  int
	GoVersion   string
	SetupS      []float64 // CPU seconds of each timed set-up
	MeshgenMs   []float64 // wall milliseconds of each timed set-up's parts
	BootstrapMs []float64
	CPUS        float64   // CPU seconds of the timed steps, all threads
	WallS       float64   // wall seconds of the timed steps
	StepCPUMs   []float64 // per step, between the fences around it
	StepMs      []float64 // per step wall time, fence to fence: that of the slowest rank
	PeakRSSMB   float64   // peak resident set over set-ups, warm-up and timed steps
	Counts      counts
	Layers      map[string]float64 `json:",omitempty"`
	Failures    []string           `json:",omitempty"`
}

// rankState is what one rank collects on one path; each rank writes only
// its own slot and the driver reads them after par.Run returns.
type rankState struct {
	refined   int64
	coarsened int64
	errs      []float64 // L∞ error of each solve, or of the final mesh without a solve
	failures  []string
	// Recorded on rank 0 for the whole process: the wall and CPU time of
	// every timed step, the heap bytes allocated and GC cycles completed
	// during the timed steps, and the peak resident set at their end, before
	// the correctness gate adds its own copies of the forest.
	stepWall, stepCPU    []time.Duration
	allocBytes, gcCycles uint64
	peakRSSMB            float64
}

// simulate performs setups timed set-ups and then one run of w along path j
// of the given seed on fresh engines, followed by the correctness gate.
// traced adds the span recorder and, if traceFile is set, writes the Chrome
// trace there.
func simulate(w workload, seed int64, j int, setups int, traced bool, traceFile string) runResult {
	res := runResult{Workload: w.name, Path: j, Traced: traced, Ranks: w.ranks,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	fail := func(format string, args ...any) { res.Failures = append(res.Failures, fmt.Sprintf(format, args...)) }

	for k := 0; k < setups; k++ {
		t0 := readStamp()
		m0 := w.coarseMesh()
		t1 := time.Now()
		if err := par.Run(w.ranks, func(c *par.Comm) { pared.BootstrapWith(c, m0, pared.Config{Mode: w.mode}) }); err != nil {
			fail("setup: %v", err)
			return res
		}
		t2 := readStamp()
		res.SetupS = append(res.SetupS, (t2.cpu - t0.cpu).Seconds())
		res.MeshgenMs = append(res.MeshgenMs, ms(t1.Sub(t0.wall)))
		res.BootstrapMs = append(res.BootstrapMs, ms(t2.wall.Sub(t1)))
	}

	var recs []*recorder
	var driver *recorder
	var mi int32
	if traced {
		epoch := time.Now()
		recs = newRecorders(w.ranks, epoch)
		driver = &recorder{rank: w.ranks, epoch: epoch}
		mi = driver.begin("setup.meshgen")
	}
	m0 := w.coarseMesh()
	if traced {
		driver.end(mi)
	}
	var k counts
	states, err := runPath(w, newPath(w, seed*int64(w.paths)+int64(j)), m0, recs, &k)
	if err != nil {
		fail("run: %v", err)
		return res
	}
	r0 := &states[0]
	for s := range r0.stepWall {
		res.StepMs = append(res.StepMs, ms(r0.stepWall[s]))
		res.StepCPUMs = append(res.StepCPUMs, ms(r0.stepCPU[s]))
		res.WallS += r0.stepWall[s].Seconds()
		res.CPUS += r0.stepCPU[s].Seconds()
	}
	res.PeakRSSMB = r0.peakRSSMB
	var errSum float64
	for i := range states[0].errs {
		var e float64
		for _, rs := range states {
			e = math.Max(e, rs.errs[i])
		}
		errSum += e
		if w.solve && e >= errLinfMax {
			fail("solve %d: L∞ error %.4g is not under the bound %g", i, e, errLinfMax)
		}
	}
	if n := len(states[0].errs); n > 0 {
		k.ErrLinf = errSum / float64(n)
	}
	for _, rs := range states {
		k.Refined += rs.refined
		k.Coarsened += rs.coarsened
		res.Failures = append(res.Failures, rs.failures...)
	}
	res.Counts = k
	if traced {
		res.Layers = layerMetrics(recs, k)
		res.Layers["runtime.heap_alloc_mb"] = float64(states[0].allocBytes) / mb
		res.Layers["runtime.gc_cycles"] = float64(states[0].gcCycles)
		if traceFile != "" {
			if err := writeChromeTrace(traceFile, recs, driver); err != nil {
				fail("trace: %v", err)
			}
		}
	}
	return res
}

// runPath runs the peak along one path on fresh engines, adding the path's
// outcomes to k. recs is nil for an untraced run.
func runPath(w workload, pth path, m0 *mesh.Mesh, recs []*recorder, k *counts) ([]rankState, error) {
	states := make([]rankState, w.ranks)
	err := par.Run(w.ranks, func(c *par.Comm) {
		me := c.Rank()
		rs := &states[me]
		var tr *recorder
		if recs != nil {
			tr = recs[me]
		}
		cfg := pared.Config{Mode: w.mode}
		tracking := false
		if recs != nil {
			// The configuration the default installs, made visible: PNR with
			// a per-rank multilevel hierarchy cache.
			pnr := core.Config{Hierarchy: core.NewHierarchy()}
			cfg.Repartition = func(g *graph.Graph, old []int32, np int) []int32 {
				if !tracking {
					return core.Repartition(g, old, np, pnr)
				}
				i := tr.begin("core.repartition")
				defer tr.end(i)
				return core.Repartition(g, old, np, pnr)
			}
		}
		var e *pared.Engine
		tr.layer(c, "setup.bootstrap", func() { e = pared.BootstrapWith(c, m0, cfg) })

		// Warm-up, unmeasured: the run starts from a mesh fitted to the peak's
		// starting position, as the paper's §10 run does.
		est0 := fem.InterpolationEstimator(pth.peak(pth.times[0]))
		for pass := 0; pass < w.warmup; pass++ {
			e.Adapt(est0, w.tol, w.tol/4, w.maxLevel)
		}
		e.Rebalance(false)
		tracking = true

		start := fence(c)
		var leaves int64
		for step := 0; step < w.steps; step++ {
			t := pth.times[step]
			s0 := fence(c)
			var si int32
			if tr != nil {
				si = tr.begin("step")
			}
			if step%w.every == 0 {
				est := fem.InterpolationEstimator(pth.peak(t))
				for pass := 0; pass < w.passes; pass++ {
					var ast pared.AdaptStats
					tr.layer(c, "adapt", func() { ast = e.Adapt(est, w.tol, w.tol/4, w.maxLevel) })
					rs.refined += int64(ast.LocalRefined)
					rs.coarsened += int64(ast.LocalCoarsened)
					leaves = ast.GlobalLeaves
					if me == 0 {
						k.AdaptCalls++
						k.AdaptRounds += int64(ast.Rounds)
						k.LeavesSum += ast.GlobalLeaves
					}
				}
				ph0 := e.Phases
				var st pared.RebalanceStats
				tr.layer(c, "rebalance", func() { st = e.Rebalance(false) })
				if tr != nil {
					tr.phases = append(tr.phases, pared.PhaseDurations{
						P1: e.Phases.P1 - ph0.P1, P2: e.Phases.P2 - ph0.P2, P3: e.Phases.P3 - ph0.P3})
				}
				if me == 0 {
					k.RebalanceLeaf += leaves
					if st.Ran {
						// A skipped call leaves the imbalance under the trigger
						// by definition; what a rebalance leaves behind
						// measures the partitioner.
						k.ImbalanceSum += st.Imbalance
						k.ImbalanceMax = math.Max(k.ImbalanceMax, st.Imbalance)
						k.Rebalances++
						k.Moved += st.MovedElements
						k.MovedTrees += st.MovedTrees
						k.CutBeforeSum += st.CutBefore
						k.CutSum += st.CutAfter
					} else {
						k.Skipped++
					}
				}
			}
			var sol *pared.DistSolution
			var serr error
			if w.solve {
				tr.layer(c, "solve", func() { sol, serr = e.SolveLaplace(pth.source(t), pth.peak(t), cgTol, cgMaxIter) })
			}
			if tr != nil {
				tr.end(si)
			}
			if s1 := fence(c); me == 0 {
				rs.stepWall = append(rs.stepWall, s1.wall.Sub(s0.wall))
				rs.stepCPU = append(rs.stepCPU, s1.cpu-s0.cpu)
			}
			if w.solve {
				if serr != nil {
					rs.failures = append(rs.failures, fmt.Sprintf("step %d: %v", step, serr))
					continue
				}
				u := pth.peak(t)
				var e float64
				for i, x := range sol.Mesh.Mesh.Verts {
					e = math.Max(e, math.Abs(sol.U[i]-u(x)))
				}
				rs.errs = append(rs.errs, e)
				if me == 0 {
					k.Solves++
					k.CGIters += int64(sol.Iterations)
				}
			}
		}
		if end := fence(c); me == 0 {
			rs.allocBytes, rs.gcCycles, rs.peakRSSMB = end.alloc-start.alloc, end.gcs-start.gcs, end.peakRSSMB
		}

		// Correctness gate, untimed: cross-rank consistency, and the gathered
		// leaf mesh must be valid and conforming.
		var cerr error
		tr.layer(c, "check", func() { cerr = e.CheckConsistency() })
		if cerr != nil {
			rs.failures = append(rs.failures, cerr.Error())
		}
		if !w.solve {
			// Without a solve, the error is that of the adapted mesh's linear
			// interpolant of the final peak, as the estimator samples it.
			est := fem.InterpolationEstimator(pth.peak(pth.times[w.steps-1]))
			var worst float64
			e.F.VisitLeaves(func(id forest.NodeID) { worst = math.Max(worst, est.Indicator(e.F, id)) })
			rs.errs = append(rs.errs, worst)
		}
		if f := e.GatherForest(0); f != nil {
			lm := f.LeafMesh().Mesh
			k.FinalLeaves = int64(lm.NumElems())
			if int64(lm.NumElems()) != leaves {
				rs.failures = append(rs.failures, fmt.Sprintf("gathered mesh has %d leaves, adaptation reported %d", lm.NumElems(), leaves))
			}
			if err := lm.Validate(); err != nil {
				rs.failures = append(rs.failures, err.Error())
			}
			if err := lm.CheckConforming(); err != nil {
				rs.failures = append(rs.failures, err.Error())
			}
		}
	})
	return states, err
}
