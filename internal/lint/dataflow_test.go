package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

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
// and the keyed and unkeyed package-level stores.
func TestTaintModule(t *testing.T) {
	pkgs := loadTaintModule(t)
	diags := Run(pkgs, []*Analyzer{TenantFlow()})
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

// TestTaintDeterminism renders tenantflow's diagnostics from two fresh loads
// of the mini-module and requires byte-identical output — the invariant
// verify.sh and CI enforce on the real module with cmp.
func TestTaintDeterminism(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, d := range Run(loadTaintModule(t), []*Analyzer{TenantFlow()}) {
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

// TestTaintBoundaryStopsPropagation pins the boundary contract directly:
// the boundary function's summary is clean and its body contributes no
// findings, so the caller passing payload into it stays quiet.
func TestTaintBoundaryStopsPropagation(t *testing.T) {
	pkgs := loadTaintModule(t)
	diags := Run(pkgs, []*Analyzer{TenantFlow()})
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "gateway.go") &&
			(strings.Contains(d.Message, "respond") || strings.Contains(d.Message, "Reject")) {
			t.Errorf("boundary failed to stop propagation: %s", d)
		}
	}
}

// TestTaintSubsetDirectives proves a subset run does not mark the other
// analyzers' directives stale: the fixture carries a justified tenantflow
// suppression, and running only hotpath must not report it.
func TestTaintSubsetDirectives(t *testing.T) {
	diags := Run(loadTaintModule(t), []*Analyzer{HotPath()})
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("subset run reported an inactive analyzer's directive as stale: %s", d)
		}
		if d.Analyzer == "tenantflow" {
			t.Errorf("subset run produced a diagnostic from an inactive analyzer: %s", d)
		}
	}
}
