package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The summary cache makes the lint run incremental: a package whose source —
// and whose transitive project dependencies' source — is unchanged since the
// last run gets its diagnostics replayed from out/lintcache instead of being
// re-analyzed. Keys are content hashes over the package's whole import cone
// plus the check list, so there is no mtime fragility and no invalidation
// logic: an edit anywhere below a package produces a new key, and entries
// under superseded keys are simply never read again. Interprocedural facts
// (call-graph paths, range summaries) stay sound because they can only flow
// into a package from inside its import cone, which the key covers.

// cacheVersion is folded into every key; bump it when the diagnostic format
// or any check's semantics change in a way the check list cannot express.
const cacheVersion = "pared-lintcache-v5" // v5: collective check folded into spmd

// Cache is a content-addressed store of per-package lint results.
type Cache struct {
	dir        string
	moduleRoot string
	modulePath string
	keys       map[string]string // import path → key, memoized per process
}

// CacheStats counts per-package cache outcomes for the -json trailer.
type CacheStats struct {
	Hits   int
	Misses int
}

// Rate is the hit fraction in [0, 1]; 0 for an empty run.
func (s CacheStats) Rate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewCache opens (creating if needed) a cache directory for the loader's
// module. A nil loader or an uncreatable directory yields a nil cache, which
// RunCachedTimed treats as "cache disabled".
func NewCache(dir string, l *Loader) *Cache {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	return &Cache{
		dir:        dir,
		moduleRoot: l.ModuleRoot,
		modulePath: l.ModulePath,
		keys:       make(map[string]string),
	}
}

// key hashes the package's check-relevant inputs: the cache version, the
// check list, and the name and contents of every non-test Go file in the
// package and its transitive project dependencies. Test files and excluded
// build-tag files are hashed too — over-approximating the input set can only
// cause spurious misses, never stale hits. ok is false when the package is
// too broken to enumerate (no type info), which disables caching for it.
func (c *Cache) key(p *Package, checks []*Check) (string, bool) {
	if p == nil || p.Types == nil {
		return "", false
	}
	h := sha256.New()
	// hash.Hash writes never fail; the results are discarded explicitly.
	_, _ = io.WriteString(h, cacheVersion+"\n")
	for _, ck := range checks {
		_, _ = io.WriteString(h, ck.Name+"\n")
	}
	for _, ip := range c.depClosure(p.Types) {
		_, _ = io.WriteString(h, ip+"\n")
		dk, ok := c.dirKey(c.pathToDir(ip))
		if !ok {
			return "", false
		}
		_, _ = io.WriteString(h, dk+"\n")
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// depClosure returns the package plus its transitive project imports, sorted
// by import path for a stable hash order.
func (c *Cache) depClosure(root *types.Package) []string {
	seen := make(map[string]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, imp := range p.Imports() {
			if imp.Path() == c.modulePath || strings.HasPrefix(imp.Path(), c.modulePath+"/") {
				visit(imp)
			}
		}
	}
	visit(root)
	out := make([]string, 0, len(seen))
	for ip := range seen {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out
}

// pathToDir maps a project import path to its directory (mirror of the
// loader's mapping; testdata pseudo-paths are already directories).
func (c *Cache) pathToDir(importPath string) string {
	if !strings.HasPrefix(importPath, c.modulePath) {
		return importPath
	}
	rel := strings.TrimPrefix(importPath, c.modulePath)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(c.moduleRoot, filepath.FromSlash(rel))
}

// dirKey hashes the names and contents of a directory's non-test Go files.
func (c *Cache) dirKey(dir string) (string, bool) {
	if k, ok := c.keys[dir]; ok {
		return k, true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return "", false
		}
		fmt.Fprintf(h, "%s %d\n", n, len(data))
		_, _ = h.Write(data) // hash.Hash writes never fail
	}
	k := hex.EncodeToString(h.Sum(nil))
	c.keys[dir] = k
	return k, true
}

// cachedDiag is the on-disk diagnostic shape. File paths are stored relative
// to the module root so a relocated checkout keeps its cache warm.
type cachedDiag struct {
	Check string   `json:"check"`
	File  string   `json:"file"`
	Line  int      `json:"line"`
	Col   int      `json:"col"`
	Off   int      `json:"off"`
	Msg   string   `json:"msg"`
	Path  []string `json:"path,omitempty"`
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load replays a package's diagnostics; ok is false on any miss or decode
// failure (a corrupt entry is just a miss — it will be rewritten).
func (c *Cache) load(key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return nil, false
	}
	var entry []cachedDiag
	if err := json.Unmarshal(data, &entry); err != nil {
		return nil, false
	}
	out := make([]Diagnostic, 0, len(entry))
	for _, e := range entry {
		name := e.File
		if !filepath.IsAbs(name) {
			name = filepath.Join(c.moduleRoot, filepath.FromSlash(name))
		}
		var d Diagnostic
		d.Check = e.Check
		d.Msg = e.Msg
		d.Path = e.Path
		d.Pos.Filename = name
		d.Pos.Line = e.Line
		d.Pos.Column = e.Col
		d.Pos.Offset = e.Off
		out = append(out, d)
	}
	return out, true
}

// store writes a package's diagnostics under key, atomically (temp +
// rename) so concurrent runs never observe torn entries. Best-effort: a
// failed store only costs a future re-analysis.
func (c *Cache) store(key string, diags []Diagnostic) {
	entry := make([]cachedDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(c.moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		entry = append(entry, cachedDiag{
			Check: d.Check,
			File:  file,
			Line:  d.Pos.Line,
			Col:   d.Pos.Column,
			Off:   d.Pos.Offset,
			Msg:   d.Msg,
			Path:  d.Path,
		})
	}
	data, err := json.Marshal(entry)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(name)
		return
	}
	_ = os.Rename(name, c.entryPath(key)) // best-effort: a lost entry is a future miss
}

// RunCachedTimed is RunTimed with the per-package summary cache in front:
// packages whose keys hit replay their stored diagnostics; the rest are
// analyzed with the full package set in the program (cross-package facts
// need every loaded package) and stored for next time. A nil cache degrades
// to RunTimed. Stale-allow reporting covers the analyzed packages only.
func RunCachedTimed(pkgs []*Package, checks []*Check, cache *Cache) ([]Diagnostic, []CheckTiming, CacheStats) {
	if cache == nil {
		d, t := RunTimed(pkgs, checks)
		return d, t, CacheStats{}
	}
	var stats CacheStats
	var diags []Diagnostic
	var miss []*Package
	keys := make(map[*Package]string)
	for _, p := range pkgs {
		key, ok := cache.key(p, checks)
		if ok {
			keys[p] = key
			if ds, hit := cache.load(key); hit {
				stats.Hits++
				diags = append(diags, ds...)
				continue
			}
		}
		stats.Misses++
		miss = append(miss, p)
	}
	var timings []CheckTiming
	if len(miss) > 0 {
		t0 := time.Now()
		prog := BuildProgram(pkgs)
		timings = append(timings, CheckTiming{Name: "callgraph", Ms: float64(time.Since(t0).Microseconds()) / 1000})
		// Allow tables only for the packages that run checks: a replayed
		// package's directives are never consulted, so StaleAllows must
		// not see them as unused.
		for _, pkg := range miss {
			if pkg.allows == nil {
				pkg.buildAllows()
			}
		}
		perPkg := make(map[*Package][]Diagnostic, len(miss))
		for _, c := range checks {
			tc := time.Now()
			for _, pkg := range miss {
				buf := perPkg[pkg]
				c.Run(&Pass{Package: pkg, Prog: prog, check: c, out: &buf})
				perPkg[pkg] = buf
			}
			timings = append(timings, CheckTiming{Name: c.Name, Ms: float64(time.Since(tc).Microseconds()) / 1000})
		}
		for _, pkg := range miss {
			if key, ok := keys[pkg]; ok {
				cache.store(key, perPkg[pkg])
			}
			diags = append(diags, perPkg[pkg]...)
		}
	}
	sortDiags(diags)
	return diags, timings, stats
}
