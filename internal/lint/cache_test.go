package lint

import (
	"path/filepath"
	"testing"
)

// TestCacheRoundTrip pins the incremental-lint contract: the first run over
// a package misses and stores, the second hits and replays byte-identical
// diagnostics, and the key changes with the check list (so `-only bce`
// results can never satisfy a full run).
func TestCacheRoundTrip(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, "intwidthseed")
	cache := NewCache(t.TempDir(), l)
	if cache == nil {
		t.Fatal("NewCache returned nil for a valid loader")
	}

	pkgs := []*Package{pkg}
	checks := []*Check{IntWidth}
	cold, _, stats := RunCachedTimed(pkgs, checks, cache)
	if stats.Hits != 0 || stats.Misses != 1 {
		t.Fatalf("cold run: want 0 hits / 1 miss, got %d/%d", stats.Hits, stats.Misses)
	}
	if len(cold) == 0 {
		t.Fatalf("seeded fixture produced no diagnostics")
	}

	warm, timings, stats := RunCachedTimed(pkgs, checks, cache)
	if stats.Hits != 1 || stats.Misses != 0 {
		t.Fatalf("warm run: want 1 hit / 0 misses, got %d/%d", stats.Hits, stats.Misses)
	}
	if len(timings) != 0 {
		t.Errorf("full-hit run should not build the call graph or run checks, got timings %v", timings)
	}
	if len(warm) != len(cold) {
		t.Fatalf("replayed %d diagnostics, analyzed %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].String() != cold[i].String() {
			t.Errorf("replayed diagnostic drifted:\n  cold: %s\n  warm: %s", cold[i], warm[i])
		}
	}

	k1, ok1 := cache.key(pkg, []*Check{IntWidth})
	k2, ok2 := cache.key(pkg, []*Check{IntWidth, BCE})
	if !ok1 || !ok2 {
		t.Fatal("key computation failed for a loadable fixture")
	}
	if k1 == k2 {
		t.Error("cache key must depend on the check list")
	}

	// Degraded mode: a nil cache is plain RunTimed.
	none, _, stats := RunCachedTimed(pkgs, checks, nil)
	if stats.Hits != 0 || stats.Misses != 0 {
		t.Errorf("nil cache should report no cache traffic, got %d/%d", stats.Hits, stats.Misses)
	}
	if len(none) != len(cold) {
		t.Errorf("nil-cache run returned %d diagnostics, want %d", len(none), len(cold))
	}
}

// TestCacheReplayNoStaleAllows pins a partial-miss run: the replayed package
// runs no checks, so its used suppressions must not come back as stale
// beside a package that misses and is analyzed. Both fixtures carry only
// used directives, so StaleAllows must report nothing at all.
func TestCacheReplayNoStaleAllows(t *testing.T) {
	dir := t.TempDir()
	checks := []*Check{Sleep, FloatEq}
	// Each run loads fresh packages, as a new paredlint process would.
	run := func(fixtures ...string) ([]*Package, CacheStats) {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		var pkgs []*Package
		for _, f := range fixtures {
			pkg, err := l.LoadDir(filepath.Join("testdata", "src", f))
			if err != nil || pkg == nil {
				t.Fatalf("load %s: %v", f, err)
			}
			pkgs = append(pkgs, pkg)
		}
		_, _, stats := RunCachedTimed(pkgs, checks, NewCache(dir, l))
		return pkgs, stats
	}

	run("sleep")
	pkgs, stats := run("sleep", "floateq")
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("want sleep replayed and floateq analyzed (1 hit / 1 miss), got %d/%d", stats.Hits, stats.Misses)
	}
	for _, d := range StaleAllows(pkgs, checks) {
		t.Errorf("used suppression reported stale: %s", d)
	}
}
