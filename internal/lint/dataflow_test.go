package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// taintAnalyzers is the trio under test, in suite order.
func taintAnalyzers() []*Analyzer {
	return []*Analyzer{TenantFlow(), SharedMut(), PoolBleed()}
}

// loadTaintModule loads the taint mini-module fresh (no shared state with
// other tests, so determinism comparisons are non-vacuous).
func loadTaintModule(t *testing.T) []*Package {
	t.Helper()
	pkgs, _, err := LoadModule(filepath.Join("testdata", "engine", "taint"))
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestTaintModule proves every scenario in the mini-module: direct sinks,
// keyed sinks, interprocedural chains, boundary stops, summary recursion,
// the tenant-header special case, directive suppression and staleness,
// lock/tenant-key escapes for sharedmut, and each poolbleed reset idiom.
func TestTaintModule(t *testing.T) {
	pkgs := loadTaintModule(t)
	diags := Run(pkgs, taintAnalyzers())
	checkModuleFixture(t, pkgs, diags)
	// The two-hop leak must spell out its full propagation chain.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "via internal/gateway.emit -> internal/gateway.write") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic carries the two-hop summary chain: %v", diags)
	}
}

// TestTaintDeterminism renders the trio's diagnostics from two fresh loads
// of the mini-module and requires byte-identical output — the invariant
// verify.sh and CI enforce on the real module with cmp.
func TestTaintDeterminism(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, d := range Run(loadTaintModule(t), taintAnalyzers()) {
			fmt.Fprintf(&b, "%s\n", d)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("taint diagnostics differ between identical runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if a == "" {
		t.Fatal("determinism check is vacuous: the fixture produced no diagnostics")
	}
}

// TestTaintDump exercises the -taint debug view: boundary status, summary
// facts, and lifted sinks render for a named function.
func TestTaintDump(t *testing.T) {
	pkgs := loadTaintModule(t)
	TypeCheck(pkgs)
	e := BuildTaint(pkgs, BuildCallGraph(pkgs))
	var out bytes.Buffer
	if !e.DumpSummary(&out, "write") {
		t.Fatal("DumpSummary failed to resolve internal/gateway.write")
	}
	s := out.String()
	for _, want := range []string{"canalmesh/internal/gateway.write", "http.Error response write", "when params"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump of write lacks %q:\n%s", want, s)
		}
	}
	out.Reset()
	if !e.DumpSummary(&out, "respond") {
		t.Fatal("DumpSummary failed to resolve internal/gateway.respond")
	}
	if !strings.Contains(out.String(), "boundary") {
		t.Errorf("dump of the boundary function lacks its status:\n%s", out.String())
	}
	if e.DumpSummary(&out, "no.such.function") {
		t.Error("DumpSummary resolved a nonexistent function")
	}
}

// TestTaintBoundaryStopsPropagation pins the boundary contract directly:
// the boundary function's summary is clean and its body contributes no
// findings, so the caller passing payload into it stays quiet.
func TestTaintBoundaryStopsPropagation(t *testing.T) {
	pkgs := loadTaintModule(t)
	diags := Run(pkgs, taintAnalyzers())
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "gateway.go") &&
			(strings.Contains(d.Message, "respond") || strings.Contains(d.Message, "Reject")) {
			t.Errorf("boundary failed to stop propagation: %s", d)
		}
	}
}

// TestTaintSubsetDirectives proves a subset run does not mark the other
// analyzers' directives stale: the fixture carries a justified tenantflow
// suppression, and running only sharedmut must not report it.
func TestTaintSubsetDirectives(t *testing.T) {
	diags := Run(loadTaintModule(t), []*Analyzer{SharedMut()})
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("subset run reported an inactive analyzer's directive as stale: %s", d)
		}
		if d.Analyzer == "tenantflow" || d.Analyzer == "poolbleed" {
			t.Errorf("subset run produced a diagnostic from an inactive analyzer: %s", d)
		}
	}
}

// TestPoolBleedFallback runs the analyzer over the single-package fixture:
// a one-package module builds its call graph and taint engine on demand
// like any other.
func TestPoolBleedFallback(t *testing.T) {
	diags := runTypedFixture(t, "poolbleed", "internal/bufpool", "poolbleed")
	checkFixture(t, fixtureFile("poolbleed"), diags)
}
