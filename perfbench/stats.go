package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the least number of samples that must lie beyond a reported
// tail percentile.
const minTail = 10

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run, as a user of the engine sees
// them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"step_cpu_ms_p50", "ms", "lower"},
	{"step_cpu_ms_p90", "ms", "lower"},
	{"migrate_frac", "fraction", "lower"},
	{"cut_mean", "edges", "lower"},
	{"imbalance_mean", "fraction", "lower"},
	{"err_linf", "dimensionless", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run, one group per module layer.
var perLayer = []metricDef{
	{"setup.meshgen_ms", "ms", "lower"},
	{"setup.bootstrap_ms", "ms", "lower"},
	{"adapt.ms", "ms", "lower"},
	{"adapt.share", "fraction", "lower"},
	{"adapt.rounds", "count", "lower"},
	{"adapt.refined", "count", "lower"},
	{"adapt.coarsened", "count", "lower"},
	{"adapt.leaves_mean", "count", "lower"},
	{"adapt.alloc_mb", "MB", "lower"},
	{"rebalance.ms", "ms", "lower"},
	{"rebalance.share", "fraction", "lower"},
	{"rebalance.ran", "count", "lower"},
	{"rebalance.skipped", "count", "higher"},
	{"rebalance.p1_ms", "ms", "lower"},
	{"rebalance.p2_ms", "ms", "lower"},
	{"rebalance.p3_ms", "ms", "lower"},
	{"rebalance.unattributed_ms", "ms", "lower"},
	{"rebalance.alloc_mb", "MB", "lower"},
	{"rebalance.cut_gain", "edges", "higher"},
	{"rebalance.imbalance_max", "fraction", "lower"},
	{"core.repartition_ms", "ms", "lower"},
	{"core.calls", "count", "lower"},
	{"migrate.ms", "ms", "lower"},
	{"migrate.trees", "count", "lower"},
	{"migrate.elems", "count", "lower"},
	{"solve.ms", "ms", "lower"},
	{"solve.share", "fraction", "lower"},
	{"solve.calls", "count", "lower"},
	{"solve.cg_iters", "count", "lower"},
	{"solve.us_per_iter", "us", "lower"},
	{"solve.alloc_mb", "MB", "lower"},
	{"runtime.heap_alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"check.ms", "ms", "lower"},
	{"trace.coverage", "fraction", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and how many samples
// lie beyond it. A tail percentile (q > ½) with fewer than minTail samples
// beyond it is refused.
func percentile(xs []float64, q float64) (v float64, beyond int, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	beyond = n - rank
	if q > 0.5 && beyond < minTail {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", 100*q, n, beyond, minTail)
	}
	return s[rank-1], beyond, nil
}
