// Command perfbench is the PARED benchmark: seeded adaptive runs of the
// distributed engine on goroutine ranks, timed end to end, with separate
// traced runs that attribute the time to the engine's layers.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload transient2d --seed 0 --seconds 20 --trace 0
//
// A seed names a fixed set of peak paths (see workload.go). Each run follows
// one path in its own child process under a watchdog, so a hung or crashed
// run is counted as failed and the benchmark goes on, and every run's peak
// memory is its own. Runs cycle through the paths until --seconds have
// passed. With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics. Their times are CPU times of the child
// process, which time stolen by the hypervisor of a shared host does not
// inflate as it does wall time; the wall times are printed beside them.
// With --trace 1 each path runs as an untraced and traced pair, the object
// holds the per-layer metrics, and the first traced run's spans are written
// as Chrome trace-event JSON under --trace-dir. layers.json records the seeds
// and which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

const (
	setupsPerRun = 5                 // timed set-ups in every child run
	childTimeout = 40 * time.Second  // watchdog on one child run
	hardLimit    = 120 * time.Second // no child run starts after this
)

func main() {
	workloadName := flag.String("workload", "", "workload name (see layers.json)")
	seed := flag.Int64("seed", 0, "seed of the peak paths; 0 starts with the paper's diagonal path")
	seconds := flag.Int("seconds", 10, "how long to keep repeating runs")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of traced runs, 0 the end-to-end metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace of a traced run")
	child := flag.Bool("child", false, "run one path in this process and print the result (used by the benchmark itself)")
	pathIndex := flag.Int("path", 0, "with -child: which of the seed's paths to run")
	traced := flag.Bool("traced", false, "with -child: record spans")
	traceFile := flag.String("trace-file", "", "with -child -traced: write the Chrome trace here")
	flag.Parse()

	w, err := findWorkload(*workloadName)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 || *pathIndex < 0 || *pathIndex >= max(w.paths, 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d, path %d): %v\n",
			*workloadName, *trace, *seconds, *pathIndex, err)
		os.Exit(2)
	}
	if *child {
		res := simulate(w, *seed, *pathIndex, setupsPerRun, *traced, *traceFile)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1,
		filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))))
}

// bench repeats isolated runs for the given duration, checks them, prints
// the report and returns the exit code. Untraced, run i follows path i mod
// paths, so every path runs at least once; traced, each path runs as an
// untraced and traced pair.
func bench(w workload, seed int64, seconds time.Duration, traced bool, traceFile string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	minRuns := w.paths
	if traced {
		minRuns = 4
	}
	start := time.Now()
	var ok []runResult
	first := make([]*counts, w.paths) // the counts of every path's first successful run
	attempted, failed := 0, 0
	for i := 0; (i < minRuns || time.Since(start) < seconds) && time.Since(start) < hardLimit; i++ {
		j, isTraced := i%w.paths, false
		if traced {
			j, isTraced = (i/2)%w.paths, i%2 == 1
		}
		args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-path", strconv.Itoa(j)}
		if isTraced {
			args = append(args, "-traced")
			if i == 1 {
				args = append(args, "-trace-file", traceFile)
			}
		}
		attempted++
		res, err := runIsolated(exe, args, childTimeout)
		if err == nil && len(res.Failures) > 0 {
			err = fmt.Errorf("correctness gate: %v", res.Failures)
		}
		if ref := first[j]; err == nil && ref != nil && res.Counts != *ref {
			err = fmt.Errorf("deterministic counts of path %d differ from its first run (traced %v):\n  got  %+v\n  want %+v",
				j, isTraced, res.Counts, *ref)
		}
		if err != nil {
			failed++
			fmt.Printf("run %d (path %d) FAILED: %v\n", i, j, err)
			continue
		}
		if first[j] == nil {
			first[j] = &res.Counts
		}
		ok = append(ok, res)
	}
	if len(ok) == 0 {
		fmt.Printf("perfbench: all %d runs failed\n", attempted)
		return 1
	}
	meta, _ := json.Marshal(map[string]any{"workload": w.name, "seed": seed, "paths": w.paths, "ranks": ok[0].Ranks,
		"num_cpu": ok[0].NumCPU, "gomaxprocs": ok[0].GOMAXPROCS, "go": ok[0].GoVersion, "traced": traced})
	fmt.Printf("meta %s\n", meta)
	fmt.Printf("fail_frac %.4g fraction (%d of %d runs failed)\n", float64(failed)/float64(attempted), failed, attempted)

	var vals map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		vals, err = layerReport(ok)
	} else {
		vals, err = endToEndReport(ok, first)
	}
	if err != nil {
		fmt.Printf("perfbench: %v\n", err)
		return 1
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && (traced || !slices.Contains(first, nil)), attempted, failed, map[string]metric{}}
	for _, d := range defs {
		fmt.Printf("%-26s %14.6g %s\n", d.name, vals[d.name], d.unit)
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Printf("perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEndReport aggregates untraced runs: times are medians over runs (set-up
// over every timed set-up), step percentiles pool every run's steps, and the
// deterministic outcomes pool the counts of the seed's paths. The reported
// times are CPU times, which the hypervisor's steal does not inflate; the
// wall times are printed beside them.
func endToEndReport(runs []runResult, paths []*counts) (map[string]float64, error) {
	var setup, cpus, walls, stepCPU, stepWall, rss []float64
	for _, r := range runs {
		setup = append(setup, r.SetupS...)
		cpus = append(cpus, r.CPUS)
		walls = append(walls, r.WallS)
		stepCPU = append(stepCPU, r.StepCPUMs...)
		stepWall = append(stepWall, r.StepMs...)
		rss = append(rss, r.PeakRSSMB)
	}
	p50, _, err := percentile(stepCPU, 0.5)
	if err != nil {
		return nil, err
	}
	p90, beyond, err := percentile(stepCPU, 0.9)
	if err != nil {
		return nil, err
	}
	w50, _, _ := percentile(stepWall, 0.5)
	w90, _, _ := percentile(stepWall, 0.9)
	fmt.Printf("samples: %d set-ups, %d runs, %d steps (%d beyond p90)\n", len(setup), len(runs), len(stepCPU), beyond)
	fmt.Printf("wall time, not gated: run %.4g s, step p50 %.4g ms, step p90 %.4g ms\n", median(walls), w50, w90)
	var sum counts
	var n int
	for _, k := range paths {
		if k == nil {
			continue
		}
		n++
		sum.Moved += k.Moved
		sum.RebalanceLeaf += k.RebalanceLeaf
		sum.CutSum += k.CutSum
		sum.Rebalances += k.Rebalances
		sum.ImbalanceSum += k.ImbalanceSum
		sum.ErrLinf += k.ErrLinf
	}
	v := map[string]float64{
		"setup_s":         median(setup),
		"cpu_s":           median(cpus),
		"step_cpu_ms_p50": p50,
		"step_cpu_ms_p90": p90,
		"err_linf":        sum.ErrLinf / float64(n),
		"peak_rss_mb":     median(rss),
	}
	if sum.RebalanceLeaf > 0 {
		v["migrate_frac"] = float64(sum.Moved) / float64(sum.RebalanceLeaf)
	}
	if sum.Rebalances > 0 {
		v["cut_mean"] = float64(sum.CutSum) / float64(sum.Rebalances)
		v["imbalance_mean"] = sum.ImbalanceSum / float64(sum.Rebalances)
	}
	return v, nil
}

// layerReport aggregates the traced runs' layer metrics (medians over traced
// runs), the set-up layers over every timed set-up, and the tracing overhead
// as the median over paired runs of the traced run's wall time over the
// untraced one's of the same path.
func layerReport(runs []runResult) (map[string]float64, error) {
	var meshgen, boot, overhead []float64
	byName := map[string][]float64{}
	var plain *runResult
	for i := range runs {
		r := &runs[i]
		meshgen = append(meshgen, r.MeshgenMs...)
		boot = append(boot, r.BootstrapMs...)
		if !r.Traced {
			plain = r
			continue
		}
		if plain != nil && plain.Path == r.Path {
			overhead = append(overhead, r.WallS/plain.WallS-1)
		}
		plain = nil
		for name, x := range r.Layers {
			byName[name] = append(byName[name], x)
		}
	}
	if len(overhead) == 0 {
		return nil, errors.New("no untraced and traced pair of runs succeeded")
	}
	fmt.Printf("samples: %d set-ups, %d traced runs, %d untraced-traced pairs\n", len(meshgen), len(byName["adapt.ms"]), len(overhead))
	v := map[string]float64{
		"setup.meshgen_ms":    median(meshgen),
		"setup.bootstrap_ms":  median(boot),
		"trace.overhead_frac": median(overhead),
	}
	for name, xs := range byName {
		v[name] = median(xs)
	}
	return v, nil
}

// runIsolated runs one child under a watchdog and returns its result. A
// child that outlives the timeout is killed and reported as hung.
func runIsolated(exe string, args []string, timeout time.Duration) (runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	// A child must not outlive a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	if ctx.Err() != nil {
		return runResult{}, fmt.Errorf("hung: killed after %v", timeout)
	}
	if err != nil {
		return runResult{}, fmt.Errorf("child: %w", err)
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return runResult{}, fmt.Errorf("child output: %w", err)
	}
	return res, nil
}
