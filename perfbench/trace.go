package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"pared/internal/par"
	"pared/internal/pared"
)

// span is one timed call on one rank's track.
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	parent     int32         // index of the enclosing span on the same track, −1 at top level
	alloc      uint64        // bytes allocated by all ranks during the call; recorded on rank 0
}

// recorder keeps one rank's spans in memory for the traced run. All
// recorders of a run share one epoch, so their tracks line up.
type recorder struct {
	rank   int
	epoch  time.Time
	spans  []span
	open   []int32
	phases []pared.PhaseDurations // per Rebalance call: phase time spent inside it
}

func newRecorders(n int, epoch time.Time) []*recorder {
	recs := make([]*recorder, n)
	for r := range recs {
		recs[r] = &recorder{rank: r, epoch: epoch}
	}
	return recs
}

func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	r.spans[i].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// layer runs fn as one call into a layer. Untraced (r == nil) it only calls
// fn. Traced, it fences the call on both sides, so every rank enters
// together and the process-wide allocation counter read by rank 0 between
// the fences counts this layer's allocations on all ranks alone.
func (r *recorder) layer(c *par.Comm, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	a0 := fence(c).alloc
	i := r.begin(name)
	fn()
	r.end(i)
	r.spans[i].alloc = fence(c).alloc - a0
}

// stamp is a reading of the process-wide clocks and counters.
type stamp struct {
	wall       time.Time
	cpu        time.Duration // user plus system time of all threads
	alloc, gcs uint64        // heap bytes allocated, GC cycles completed
	peakRSSMB  float64       // peak resident set so far
}

// fence is a double barrier with rank 0 reading a stamp while every other
// rank waits between the two barriers, so no rank's work falls on the wrong
// side of the reading. It returns the stamp on rank 0 and zero elsewhere.
func fence(c *par.Comm) stamp {
	c.Barrier()
	var s stamp
	if c.Rank() == 0 {
		s = readStamp()
	}
	c.Barrier()
	return s
}

func readStamp() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	m := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(m)
	return stamp{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     m[0].Value.Uint64(),
		gcs:       m[1].Value.Uint64(),
		peakRSSMB: float64(ru.Maxrss) * 1024 / mb, // Maxrss is in KiB on Linux
	}
}

// perCall returns the duration of every call named name, as the maximum
// over the ranks that made it, in call order: the time that call held up
// the run.
func perCall(recs []*recorder, name string) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		k := 0
		for _, s := range r.spans {
			if s.name != name {
				continue
			}
			if k == len(out) {
				out = append(out, 0)
			}
			out[k] = max(out[k], s.end-s.start)
			k++
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mb = 1 << 20

// allocOf sums the allocation recorded on rank 0 for the calls named name.
func allocOf(recs []*recorder, name string) float64 {
	var a uint64
	for _, s := range recs[0].spans {
		if s.name == name {
			a += s.alloc
		}
	}
	return float64(a) / mb
}

// layerMetrics derives the per-layer metrics of a traced run from its spans
// and counts. Every *.ms value is the per-call maximum over ranks summed
// over the run; every *.share divides it by the traced step time.
func layerMetrics(recs []*recorder, k counts) map[string]float64 {
	steps := sumDur(perCall(recs, "step"))
	adapt := sumDur(perCall(recs, "adapt"))
	rebal := perCall(recs, "rebalance")
	solve := sumDur(perCall(recs, "solve"))
	coreCalls := perCall(recs, "core.repartition")
	core := sumDur(coreCalls)

	// Phase times per Rebalance call, maximum over ranks, and the part of
	// each call's span no phase accounts for.
	var p1, p2, p3, unattr time.Duration
	for i, d := range rebal {
		var m1, m2, m3, mAll time.Duration
		for _, r := range recs {
			ph := r.phases[i]
			m1, m2, m3 = max(m1, ph.P1), max(m2, ph.P2), max(m3, ph.P3)
			mAll = max(mAll, ph.P1+ph.P2+ph.P3)
		}
		p1, p2, p3 = p1+m1, p2+m2, p3+m3
		unattr += d - mAll
	}
	share := func(d time.Duration) float64 {
		if steps <= 0 {
			return 0
		}
		return float64(d) / float64(steps)
	}
	usPerIter := 0.0
	if k.CGIters > 0 {
		usPerIter = 1000 * ms(solve) / float64(k.CGIters)
	}
	leavesMean := 0.0
	if k.AdaptCalls > 0 {
		leavesMean = float64(k.LeavesSum) / float64(k.AdaptCalls)
	}
	return map[string]float64{
		"adapt.ms":                  ms(adapt),
		"adapt.share":               share(adapt),
		"adapt.rounds":              float64(k.AdaptRounds),
		"adapt.refined":             float64(k.Refined),
		"adapt.coarsened":           float64(k.Coarsened),
		"adapt.leaves_mean":         leavesMean,
		"adapt.alloc_mb":            allocOf(recs, "adapt"),
		"rebalance.ms":              ms(sumDur(rebal)),
		"rebalance.share":           share(sumDur(rebal)),
		"rebalance.ran":             float64(k.Rebalances),
		"rebalance.skipped":         float64(k.Skipped),
		"rebalance.p1_ms":           ms(p1),
		"rebalance.p2_ms":           ms(p2),
		"rebalance.p3_ms":           ms(p3),
		"rebalance.unattributed_ms": ms(unattr),
		"rebalance.alloc_mb":        allocOf(recs, "rebalance"),
		"rebalance.cut_gain":        float64(k.CutBeforeSum - k.CutSum),
		"rebalance.imbalance_max":   k.ImbalanceMax,
		"core.repartition_ms":       ms(core),
		"core.calls":                float64(len(coreCalls)),
		"migrate.ms":                ms(p3 - core),
		"migrate.trees":             float64(k.MovedTrees),
		"migrate.elems":             float64(k.Moved),
		"solve.ms":                  ms(solve),
		"solve.share":               share(solve),
		"solve.calls":               float64(k.Solves),
		"solve.cg_iters":            float64(k.CGIters),
		"solve.us_per_iter":         usPerIter,
		"solve.alloc_mb":            allocOf(recs, "solve"),
		"check.ms":                  ms(sumDur(perCall(recs, "check"))),
		"trace.coverage":            share(adapt + sumDur(rebal) + solve),
	}
}

// traceEvent is one Chrome trace-event record ("X" complete events, "M"
// track names).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, one track
// per rank plus a driver track for the work done outside the ranks.
func writeChromeTrace(file string, recs []*recorder, driver *recorder) error {
	var evs []traceEvent
	tracks := append(append([]*recorder(nil), recs...), driver)
	for tid, r := range tracks {
		name := fmt.Sprintf("rank %d", r.rank)
		if r == driver {
			name = "driver"
		}
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
		for _, s := range r.spans {
			ev := traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3}
			if s.parent >= 0 {
				ev.Args = map[string]any{"parent": r.spans[s.parent].name}
			}
			evs = append(evs, ev)
		}
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
