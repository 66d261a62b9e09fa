package pared

import (
	"math"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/refine"
)

// ZZEstimator computes the distributed Zienkiewicz–Zhu error indicator for a
// solution produced by SolveLaplace: the recovered nodal gradient averages
// element gradients across rank interfaces (volume-weighted sums of both the
// gradient and the volume are exchanged at shared dofs), so the indicator at
// a shard boundary equals what a serial computation on the gathered mesh
// would produce. With this, the engine's adapt loop needs no analytic
// solution — the full PARED cycle of solve → estimate → adapt → repartition
// is self-contained.
func (e *Engine) ZZEstimator(sol *DistSolution) refine.Estimator {
	m := sol.Mesh.Mesh
	n := m.NumVerts()
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)
	w := make([]float64, n)
	for el := 0; el < m.NumElems(); el++ {
		vol := m.ElemVolume(el)
		ge := fem.ElemGradient(m, sol.U, el)
		nv := m.Elems[el].Nv()
		for i := 0; i < nv; i++ {
			v := m.Elems[el].V[i]
			gx[v] += ge.X * vol
			gy[v] += ge.Y * vol
			gz[v] += ge.Z * vol
			w[v] += vol
		}
	}
	plan := sol.plan
	if plan == nil {
		plan = e.buildDofPlan(e.boundaryFacets())
	}
	for _, arr := range [][]float64{gx, gy, gz, w} {
		plan.sumShared(e.Comm, arr)
	}
	for v := 0; v < n; v++ {
		if w[v] > 0 {
			gx[v] /= w[v]
			gy[v] /= w[v]
			gz[v] /= w[v]
		}
	}
	byNode := make(map[forest.NodeID]float64, m.NumElems())
	for el, id := range sol.Mesh.Leaf2Node {
		ge := fem.ElemGradient(m, sol.U, el)
		nv := m.Elems[el].Nv()
		acc := 0.0
		for i := 0; i < nv; i++ {
			v := m.Elems[el].V[i]
			dx, dy, dz := ge.X-gx[v], ge.Y-gy[v], ge.Z-gz[v]
			acc += dx*dx + dy*dy + dz*dz
		}
		byNode[id] = math.Sqrt(m.ElemVolume(el) * acc / float64(nv))
	}
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		// Fresh children inherit the nearest evaluated ancestor's indicator
		// (see fem.ZZEstimator).
		for n := id; n != forest.NoNode; n = f.Node(n).Parent {
			if v, ok := byNode[n]; ok {
				return v
			}
		}
		return 0
	})
}
