package main

import (
	"fmt"
	"math"
	"math/rand"

	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/pared"
)

// Solver settings of the solve2d workload: relative residual tolerance and
// iteration cap of the distributed CG, and the L∞ error every solve must stay
// under for the run to count as correct.
const (
	cgTol      = 1e-8
	cgMaxIter  = 5000
	errLinfMax = 0.1
)

// Seeded perturbations of the peak path. They are small, so every path is a
// near copy of the paper's; the engine's response to them is not, which is
// why a seed averages its quality metrics over several paths.
const (
	pathOffset  = 0.04              // largest shift of the path per axis
	pathTilt    = 4 * math.Pi / 180 // largest rotation of the 2D path
	pathWobble  = 0.04              // largest perturbation of the 3D direction per axis
	jumpSpots   = 9                 // repartition2d: peak positions along the path
	jumpMinSpan = 4                 // repartition2d: least index distance of one jump
)

// workload sizes a seeded adaptive run along each of paths peak paths. An
// unmeasured warm-up of warmup Adapt passes and one rebalance first fits the
// coarse mesh to the peak's starting position. Then every step adapts
// (passes Adapt calls) and rebalances on steps divisible by every; solve adds
// a distributed Laplace solve to every step; jump makes the peak leap between
// distant positions of its path instead of sliding along it.
type workload struct {
	name     string
	dim      mesh.Dim
	grid     int
	ranks    int
	steps    int
	tol      float64 // refine tolerance; coarsening at tol/4
	maxLevel int32
	paths    int
	warmup   int
	passes   int
	every    int
	solve    bool
	jump     bool
	mode     pared.RebalanceMode
}

// The coarse meshes are fine enough that no single refinement tree outweighs
// a rank's share: on coarser ones, imbalance, cut and migration swing with the
// seed far more than any code change would move them.
var workloads = []workload{
	{name: "transient2d", dim: mesh.D2, grid: 40, ranks: 8, steps: 50, tol: 4e-3, maxLevel: 18, paths: 8, warmup: 12, passes: 3, every: 1},
	{name: "solve2d", dim: mesh.D2, grid: 40, ranks: 8, steps: 30, tol: 4e-3, maxLevel: 18, paths: 8, warmup: 12, passes: 3, every: 5, solve: true},
	{name: "repartition2d", dim: mesh.D2, grid: 48, ranks: 8, steps: 20, tol: 3e-3, maxLevel: 18, paths: 12, warmup: 5, passes: 5, every: 1, jump: true},
	{name: "transient3d_sfc", dim: mesh.D3, grid: 10, ranks: 4, steps: 40, tol: 6e-2, maxLevel: 16, paths: 24, warmup: 12, passes: 3, every: 1, mode: pared.ModeSFC},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny returns the workload shrunk to a few coarse elements and steps, for
// the self-tests.
func (w workload) tiny() workload {
	w.grid = 4
	if w.dim == mesh.D3 {
		w.grid = 2
	}
	w.ranks = 4
	w.steps = 6
	w.paths = 2
	w.every = 1 // six steps of a moving peak leave no room for lagging adaptation
	return w
}

// coarseMesh generates the workload's coarse mesh on (−1,1)^dim.
func (w workload) coarseMesh() *mesh.Mesh {
	if w.dim == mesh.D3 {
		return meshgen.BoxTet(w.grid, w.grid, w.grid, -1, -1, -1, 1, 1, 1)
	}
	return meshgen.RectTri(w.grid, w.grid, -1, -1, 1, 1)
}

// path is a seeded trajectory of the peak, c(t) = origin + t·dir for
// t ∈ [−½, ½], and the t of every step. Path seed 0 is the paper's §10 path:
// origin 0 and dir = −(1,1[,1]), so the peak slides from (½,½) to (−½,−½).
// Benchmark seed s runs path seeds s·paths … s·paths+paths−1, so seed 0
// starts with the paper's path.
type path struct {
	dim    mesh.Dim
	origin geom.Vec3
	dir    geom.Vec3
	times  []float64
}

func newPath(w workload, seed int64) path {
	p := path{dim: w.dim, dir: geom.Vec3{X: -1, Y: -1}}
	if w.dim == mesh.D3 {
		p.dir.Z = -1
	}
	rng := rand.New(rand.NewSource(seed))
	if seed != 0 {
		shift := func() float64 { return pathOffset * (2*rng.Float64() - 1) }
		p.origin = geom.Vec3{X: shift(), Y: shift()}
		if w.dim == mesh.D3 {
			p.origin.Z = shift()
			wob := func() float64 { return pathWobble * (2*rng.Float64() - 1) }
			d := geom.Vec3{X: p.dir.X + wob(), Y: p.dir.Y + wob(), Z: p.dir.Z + wob()}
			p.dir = d.Scale(math.Sqrt(3) / d.Norm())
		} else {
			a := pathTilt * (2*rng.Float64() - 1)
			cs, sn := math.Cos(a), math.Sin(a)
			p.dir = geom.Vec3{X: cs*p.dir.X - sn*p.dir.Y, Y: sn*p.dir.X + cs*p.dir.Y}
		}
	}
	p.times = make([]float64, w.steps)
	if !w.jump {
		for s := range p.times {
			p.times[s] = -0.5 + float64(s)/float64(max(w.steps-1, 1))
		}
		return p
	}
	// The jumps cycle through the spots with a stride of 4 or 5 (mod 9), so
	// every jump crosses at least half the path; the seed picks the first
	// spot and the stride.
	spot, stride := rng.Intn(jumpSpots), jumpMinSpan+rng.Intn(2)
	for s := range p.times {
		p.times[s] = -0.5 + float64(spot)/float64(jumpSpots-1)
		spot = (spot + stride) % jumpSpots
	}
	return p
}

func (p path) center(t float64) geom.Vec3 {
	return geom.Vec3{X: p.origin.X + p.dir.X*t, Y: p.origin.Y + p.dir.Y*t, Z: p.origin.Z + p.dir.Z*t}
}

// peak is the analytic solution at time t, u = 1/(1 + 100|x − c(t)|²), the
// §10 transient solution moved onto the seeded path. The arithmetic matches
// fem.TransientSolution term by term, so seed 0 reproduces it bit for bit.
func (p path) peak(t float64) func(geom.Vec3) float64 {
	c := p.center(t)
	if p.dim == mesh.D3 {
		return func(x geom.Vec3) float64 {
			dx, dy, dz := x.X-c.X, x.Y-c.Y, x.Z-c.Z
			return 1 / (1 + 100*(dx*dx+dy*dy+dz*dz))
		}
	}
	return func(x geom.Vec3) float64 {
		dx, dy := x.X-c.X, x.Y-c.Y
		return 1 / (1 + 100*dx*dx + 100*dy*dy)
	}
}

// source is f = −Δu for the 2D peak, as fem.TransientSource.
func (p path) source(t float64) func(geom.Vec3) float64 {
	c := p.center(t)
	return func(x geom.Vec3) float64 {
		dx, dy := x.X-c.X, x.Y-c.Y
		d := 1 + 100*dx*dx + 100*dy*dy
		return (800 - 400*d) / (d * d * d)
	}
}
