package lint

import (
	"strings"
	"testing"
)

// TestSeededBugDivergenceTwoDeep is the spmd seeded-bug acceptance test: a
// rank-divergent collective schedule hidden two calls deep on each side must
// produce a counterexample naming both concrete call paths with their
// mismatched traces.
func TestSeededBugDivergenceTwoDeep(t *testing.T) {
	pkg := loadFixture(t, "spmd")
	diags := Run([]*Package{pkg}, []*Check{SPMD})
	var hit *Diagnostic
	for i, d := range diags {
		if strings.Contains(d.Msg, "spmd.pathA") {
			hit = &diags[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no counterexample for the two-deep divergence; got %d diags", len(diags))
	}
	for _, frag := range []string{
		"BcastInt64 via spmd.pathA->spmd.stepA",
		"Barrier via spmd.pathA->spmd.stepA",
		"Barrier via spmd.pathB->spmd.stepB",
		"rank-dependent branch diverges the collective schedule",
	} {
		if !strings.Contains(hit.Msg, frag) {
			t.Errorf("counterexample missing %q:\n%s", frag, hit.Msg)
		}
	}
	if len(hit.Path) < 2 {
		t.Errorf("counterexample should carry a witness call path, got %v", hit.Path)
	}
	if s := hit.String(); !strings.Contains(s, "call path:") {
		t.Errorf("rendered diagnostic should include the call path: %s", s)
	}
}

// TestSPMDTraceSummaries pins the per-function trace summaries the check
// compares: exact event sequences, loop opacity, and the function-identity
// unification that keeps symmetric helper calls equal.
func TestSPMDTraceSummaries(t *testing.T) {
	pkg := loadFixture(t, "spmd")
	prog := BuildProgram([]*Package{pkg})

	trace := func(name string) []collEvent {
		for _, n := range prog.order {
			if n.Fn.Name() == name {
				return prog.collTrace(n.Fn)
			}
		}
		t.Fatalf("function %s not found", name)
		return nil
	}

	// stepA runs exactly [BcastInt64, Barrier]; pathA inherits it through
	// the summary with the via chain extended.
	a := trace("stepA")
	if len(a) != 2 || a[0].name != "BcastInt64" || a[1].name != "Barrier" {
		t.Fatalf("stepA trace = %s", renderTrace(a))
	}
	pa := trace("pathA")
	if len(pa) != 2 || pa[0].name != "BcastInt64" || len(pa[0].via) == 0 {
		t.Fatalf("pathA trace should splice stepA's summary with a via chain, got %s", renderTrace(pa))
	}

	// okSymmetric rejoins: both arms are [BcastInt64], so the whole function
	// summarizes to exactly one BcastInt64 event.
	sym := trace("okSymmetric")
	if len(sym) != 1 || sym[0].name != "BcastInt64" {
		t.Fatalf("okSymmetric trace = %s", renderTrace(sym))
	}

	// maybeSync has data-dependent divergence: one opaque event, stable
	// across call sites (that is what makes okSharedHelper verify).
	m1 := trace("maybeSync")
	m2 := trace("maybeSync")
	if len(m1) != 1 || m1[0].key == "" {
		t.Fatalf("maybeSync should summarize to one opaque event, got %s", renderTrace(m1))
	}
	if !equalTraces(m1, m2) {
		t.Fatalf("summaries must be stable across queries")
	}

	// badLoop's GatherInt64 sits inside a loop: the function summary must hide it
	// behind a loop event, not unroll it.
	bl := trace("badLoop")
	if len(bl) != 1 || bl[0].key == "" {
		t.Fatalf("badLoop should summarize to one opaque loop event, got %s", renderTrace(bl))
	}
}
