package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pared/internal/fem"
	"pared/internal/geom"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, beyond, err := percentile(xs, 0.9); err == nil {
		t.Fatalf("p90 of 99 samples accepted with %d beyond it", beyond)
	}
	xs = append(xs, 100)
	v, beyond, err := percentile(xs, 0.9)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v (%d beyond, err %v), want 90 with 10 beyond", v, beyond, err)
	}
	if v, _, err := percentile(xs[:3], 0.5); err != nil || v != 2 {
		t.Fatalf("p50 of 1..3 = %v (err %v), want 2", v, err)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, the benchmark reports %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestLayerTable checks that layers.json names only metrics and workloads
// the benchmark has, and every per-layer metric once.
func TestLayerTable(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		DefaultSeed *int64 `json:"default_seed"`
		HeldOutSeed *int64 `json:"held_out_seed"`
		Layers      []struct {
			Metrics, Moves, Control []string
			MostlyOn                []string `json:"mostly_on"`
		}
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.DefaultSeed == nil || spec.HeldOutSeed == nil || *spec.DefaultSeed == *spec.HeldOutSeed {
		t.Errorf("layers.json must name a default seed and a different held-out seed")
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	listed := map[string]int{}
	for _, l := range spec.Layers {
		for _, m := range l.Metrics {
			listed[m]++
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layers.json: %q is not an end-to-end metric", m)
			}
		}
		for _, w := range append(append([]string(nil), l.MostlyOn...), l.Control...) {
			if !known[w] {
				t.Errorf("layers.json: unknown workload %q", w)
			}
		}
	}
	for _, d := range perLayer {
		if listed[d.name] != 1 {
			t.Errorf("layers.json lists per-layer metric %s %d times, want once", d.name, listed[d.name])
		}
	}
}

func TestSeedZeroIsPaperPath(t *testing.T) {
	w, err := findWorkload("transient2d")
	if err != nil {
		t.Fatal(err)
	}
	p := newPath(w, 0)
	if p.times[0] != -0.5 || p.times[len(p.times)-1] != 0.5 {
		t.Fatalf("path runs from t=%v to %v, want -0.5 to 0.5", p.times[0], p.times[len(p.times)-1])
	}
	for _, tt := range []float64{-0.5, -0.13, 0, 0.31, 0.5} {
		for _, x := range []geom.Vec3{{X: -0.7, Y: 0.2}, {X: 0.5, Y: 0.5}, {X: 0.01, Y: -0.99}} {
			if got, want := p.peak(tt)(x), fem.TransientSolution(tt)(x); got != want {
				t.Errorf("peak(%v)(%v) = %v, fem.TransientSolution gives %v", tt, x, got, want)
			}
			if got, want := p.source(tt)(x), fem.TransientSource(tt)(x); got != want {
				t.Errorf("source(%v)(%v) = %v, fem.TransientSource gives %v", tt, x, got, want)
			}
		}
	}
	if q := newPath(w, 1); q.origin == p.origin || q.dir == p.dir {
		t.Errorf("seed 1 path %+v does not differ from seed 0", q)
	}
}

func TestJumpsCrossHalfThePath(t *testing.T) {
	w, err := findWorkload("repartition2d")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		p := newPath(w, seed)
		for s := 1; s < len(p.times); s++ {
			if d := math.Abs(p.times[s] - p.times[s-1]); d < 0.5 {
				t.Fatalf("seed %d step %d: peak jumps only %v", seed, s, d)
			}
		}
		if q := newPath(w, seed); !equalFloats(q.times, p.times) {
			t.Fatalf("seed %d: jump order is not reproducible", seed)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeTiny runs every workload at a tiny size untraced and traced: both
// must pass the correctness gate and agree on every deterministic count.
func TestSmokeTiny(t *testing.T) {
	for _, w := range workloads {
		w := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			plain := simulate(w, 3, 1, 2, false, "")
			if len(plain.Failures) > 0 {
				t.Fatalf("untraced run failed: %v", plain.Failures)
			}
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			traced := simulate(w, 3, 1, 0, true, traceFile)
			if len(traced.Failures) > 0 {
				t.Fatalf("traced run failed: %v", traced.Failures)
			}
			if traced.Counts != plain.Counts {
				t.Fatalf("traced counts %+v differ from untraced %+v", traced.Counts, plain.Counts)
			}
			if len(plain.SetupS) != 2 || len(plain.StepMs) != w.steps || len(plain.StepCPUMs) != w.steps ||
				plain.WallS <= 0 || plain.CPUS <= 0 || plain.PeakRSSMB <= 0 {
				t.Fatalf("untraced run timed %d set-ups, %d/%d steps, wall %v s, CPU %v s, peak RSS %v MB",
					len(plain.SetupS), len(plain.StepMs), len(plain.StepCPUMs), plain.WallS, plain.CPUS, plain.PeakRSSMB)
			}
			if w.solve != (plain.Counts.CGIters > 0) {
				t.Fatalf("CG iterations %d with solve %v", plain.Counts.CGIters, w.solve)
			}
			for _, d := range perLayer {
				if _, ok := traced.Layers[d.name]; !ok && !strings.HasPrefix(d.name, "setup.") && d.name != "trace.overhead_frac" {
					t.Errorf("traced run reports no %s", d.name)
				}
			}

			raw, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ TraceEvents []traceEvent }
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatal(err)
			}
			tracks := map[int]bool{}
			for _, ev := range tr.TraceEvents {
				if ev.Ph == "M" {
					tracks[ev.Tid] = true
				}
			}
			if len(tracks) != w.ranks+1 {
				t.Fatalf("trace has %d tracks, want one per rank plus the driver", len(tracks))
			}
		})
	}
}

// TestWatchdog runs this test binary as a child that hangs and one that
// reports a result: the first must be killed and reported, the second read
// back.
func TestWatchdog(t *testing.T) {
	t.Setenv("PERFBENCH_HELPER", "hang")
	start := time.Now()
	if _, err := runIsolated(os.Args[0], []string{"-test.run=^TestHelperChild$"}, 300*time.Millisecond); err == nil || !strings.Contains(err.Error(), "hung") {
		t.Fatalf("hung child reported %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("watchdog took %v", d)
	}
	t.Setenv("PERFBENCH_HELPER", "report")
	res, err := runIsolated(os.Args[0], []string{"-test.run=^TestHelperChild$"}, time.Minute)
	if err != nil || res.Workload != "helper" || res.PeakRSSMB <= 0 {
		t.Fatalf("reporting child gave %+v, %v", res, err)
	}
}

// TestHelperChild is the child process of TestWatchdog; run directly it does
// nothing.
func TestHelperChild(t *testing.T) {
	switch os.Getenv("PERFBENCH_HELPER") {
	case "hang":
		time.Sleep(time.Hour)
	case "report":
		if err := json.NewEncoder(os.Stdout).Encode(runResult{Workload: "helper", PeakRSSMB: readStamp().peakRSSMB}); err != nil {
			t.Fatal(err)
		}
		os.Exit(0)
	}
}
