// Command paredlint runs the project's static-analysis suite (see
// internal/lint) over the given packages and reports findings with file:line
// positions, exiting non-zero if any are found.
//
// Usage:
//
//	paredlint [flags] [packages]
//
//	paredlint ./...                      # whole module (default)
//	paredlint ./internal/core ./cmd/...  # explicit packages
//	paredlint -floateq=false ./...       # disable one check
//	paredlint -json ./...                # one JSON object per finding
//	paredlint -strict-allow ./...        # stale suppressions are findings
//
// Each check is individually toggleable:
//
//	-maporder      map iteration order in deterministic packages  (default true)
//	-rawconc       raw concurrency outside internal/par and kern  (default true)
//	-floateq       ==/!= on floats                                (default true)
//	-errcheck      dropped error returns                          (default true)
//	-sleep         time.Sleep as synchronization                  (default true)
//	-spmd          rank-gated/divergent collective schedules      (default true)
//	-kernpure      impure kern.For/ForChunks/Sum bodies           (default true)
//	-scratchalias  *Scratch buffers shared across concurrency     (default true)
//	-detfloat      order-dependent float accumulation             (default true)
//	-hotalloc      allocations in //pared:hotpath functions       (default true)
//	-bce           unprovable slice indexes in hotpath functions  (default true)
//	-intwidth      narrowing casts/shifts that can overflow       (default true)
//
// -only runs a single check by name (overriding the per-check toggles):
//
//	paredlint -only spmd ./...
//
// Output modes:
//
//	-json          emit one {check, file, line, msg, path} object per line,
//	               then one {timings: [{check, ms}, ...]} summary object
//	               (with a cache {hits, misses, rate} member under -cache)
//	-strict-allow  report //paredlint:allow directives that suppress nothing
//	-cache         replay unchanged packages from out/lintcache: per-package
//	               results keyed by a content hash over the package's import
//	               cone, so re-runs only re-analyze what changed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pared/internal/lint"
)

// jsonDiag is the machine-readable finding shape of -json mode.
type jsonDiag struct {
	Check string   `json:"check"`
	File  string   `json:"file"`
	Line  int      `json:"line"`
	Msg   string   `json:"msg"`
	Path  []string `json:"path,omitempty"`
}

// jsonTiming is one per-check wall-time entry of the -json trailer object.
type jsonTiming struct {
	Check string  `json:"check"`
	Ms    float64 `json:"ms"`
}

// jsonCache is the cache-outcome member of the -json trailer object.
type jsonCache struct {
	Hits   int     `json:"hits"`
	Misses int     `json:"misses"`
	Rate   float64 `json:"rate"`
}

// jsonTrailer is the summary object ending -json output.
type jsonTrailer struct {
	Timings []jsonTiming `json:"timings"`
	Cache   *jsonCache   `json:"cache,omitempty"`
}

func main() {
	enabled := make(map[string]*bool)
	for _, c := range lint.AllChecks() {
		enabled[c.Name] = flag.Bool(c.Name, true, c.Doc)
	}
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line, then a timings summary object")
	strictAllow := flag.Bool("strict-allow", false, "report stale //paredlint:allow directives as findings")
	only := flag.String("only", "", "run a single check by name (overrides the per-check toggles)")
	useCache := flag.Bool("cache", false, "replay unchanged packages from the content-hash summary cache under out/lintcache")
	flag.Parse()

	var checks []*lint.Check
	for _, c := range lint.AllChecks() {
		if *only != "" {
			if c.Name == *only {
				checks = append(checks, c)
			}
			continue
		}
		if *enabled[c.Name] {
			checks = append(checks, c)
		}
	}
	if *only != "" && len(checks) == 0 {
		fatal(fmt.Errorf("unknown check %q", *only))
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}

	var cache *lint.Cache
	if *useCache {
		cache = lint.NewCache(filepath.Join(loader.ModuleRoot, "out", "lintcache"), loader)
	}
	diags, timings, stats := lint.RunCachedTimed(pkgs, checks, cache)
	if *strictAllow {
		diags = append(diags, lint.StaleAllows(pkgs, checks)...)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !filepath.IsAbs(rel) {
			pos.Filename = rel
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				Check: d.Check,
				File:  pos.Filename,
				Line:  pos.Line,
				Msg:   d.Msg,
				Path:  d.Path,
			}); err != nil {
				fatal(err)
			}
			continue
		}
		msg := d.Msg
		if len(d.Path) > 1 {
			msg += " (call path: " + strings.Join(d.Path, " -> ") + ")"
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Check, msg)
	}
	if *jsonOut {
		trailer := jsonTrailer{Timings: make([]jsonTiming, 0, len(timings))}
		for _, t := range timings {
			trailer.Timings = append(trailer.Timings, jsonTiming{Check: t.Name, Ms: t.Ms})
		}
		if cache != nil {
			trailer.Cache = &jsonCache{Hits: stats.Hits, Misses: stats.Misses, Rate: stats.Rate()}
		}
		if err := enc.Encode(trailer); err != nil {
			fatal(err)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "paredlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paredlint: %v\n", err)
	os.Exit(2)
}
