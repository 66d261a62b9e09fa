// Package kernpure is a paredlint fixture for the kernpure check: closures
// passed to kern.For/ForChunks/Sum must be chunk-pure.
package kernpure

import (
	"pared/internal/kern"
	"pared/internal/par"
)

// sharedCounter writes a captured scalar from every chunk: a data race and a
// scheduling-order result.
func sharedCounter(xs []float64) float64 {
	total := 0.0
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] // want "write to captured variable total"
		}
	})
	return total
}

// fixedSlot: every chunk writes element 0.
func fixedSlot(dst, src []float64) {
	kern.For(len(src), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[0] += src[i] // want "captured dst written at an index not derived from the chunk"
		}
	})
}

// appendShared grows a captured slice concurrently.
func appendShared(xs []float64) []float64 {
	var out []float64
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if xs[i] > 0 {
				out = append(out, xs[i]) // want "appends to captured slice out"
			}
		}
	})
	return out
}

// talks communicates between ranks from inside a chunk body.
func talks(c *par.Comm, xs []float64) {
	kern.For(len(xs), 64, func(lo, hi int) {
		c.Send(0, par.Tag(1), []int64{int64(lo)}) // want "bodies must not communicate between ranks"
	})
}

// nests calls back into kern from a body; the layer does not nest.
func nests(xs []float64) {
	kern.For(len(xs), 1024, func(lo, hi int) {
		kern.For(hi-lo, 64, func(lo2, hi2 int) { _ = lo2 + hi2 }) // want "kern does not nest"
	})
}

// hits is package-level state a helper mutates.
var hits int

func bump() { hits++ }

// indirectImpure is the interprocedural positive: the global write is only
// visible through the call graph (body → bump → hits).
func indirectImpure(xs []float64) {
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bump() // want "writes shared state .package variable hits"
		}
	})
}

// okAxpy is the hoisted-closure idiom with chunk-disjoint element writes —
// no finding.
func okAxpy(a float64, x, y []float64) {
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	}
	kern.For(len(y), 64, body)
}

// okSegments writes captured slices through a captured read-only offset
// table (the BuildCSR idiom): indices derive from the chunk through state the
// body never writes — no finding.
func okSegments(start []int32, dst, src []float64) {
	kern.For(len(start)-1, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s, e := int(start[r]), int(start[r+1])
			for j := s; j < e; j++ {
				dst[j] = src[j]
			}
		}
	})
}

// okSum accumulates into a body-local and returns it through kern.Sum's
// ordered fold — no finding.
func okSum(xs []float64) float64 {
	return kern.Sum(len(xs), 64, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	})
}
