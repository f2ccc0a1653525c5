package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts expectations from fixture sources: a comment of the form
//
//	// want "substr" "substr"
//	// want+1 "substr"        (applies to the following line)
//
// Every diagnostic on a line must match one expectation there, and every
// expectation must be matched — so fixtures prove analyzers both fire and
// stay quiet.
var wantRe = regexp.MustCompile(`// want(\+1)? (".*")$`)

var wantStrRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line    int
	substr  string
	matched bool
}

func parseWants(t *testing.T, path string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		lineNo := i + 1
		if m[1] == "+1" {
			lineNo++
		}
		for _, q := range wantStrRe.FindAllStringSubmatch(m[2], -1) {
			wants = append(wants, &expectation{line: lineNo, substr: strings.ReplaceAll(q[1], `\"`, `"`)})
		}
	}
	return wants
}

// checkFixture compares diagnostics against the fixture's want comments.
func checkFixture(t *testing.T, fixtureFile string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fixtureFile)
	for _, d := range diags {
		text := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && strings.Contains(text, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", fixtureFile, w.line, w.substr)
		}
	}
}

// runTypedFixture loads testdata/<name> posed as module directory poseDir,
// type-checks it (it must type-check cleanly — a fixture with type errors
// would silently test nothing, since the analyzers degrade to silence on
// partial information) and runs the single named analyzer over it as a
// one-package module, without directive processing.
func runTypedFixture(t *testing.T, name, poseDir, analyzer string) []Diagnostic {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", name), poseDir)
	if err != nil {
		t.Fatal(err)
	}
	TypeCheck([]*Package{pkg})
	for _, d := range pkg.TypeErrors {
		t.Fatalf("fixture %s must type-check: %s", name, d)
	}
	m := &module{pkgs: []*Package{pkg}}
	var diags []Diagnostic
	for _, a := range Analyzers() {
		if a.Name == analyzer {
			diags = append(diags, m.analyze(a)...)
		}
	}
	return diags
}

func fixtureFile(name string) string {
	return filepath.Join("testdata", name, "fixture.go")
}

func TestSimDeterminismFires(t *testing.T) {
	diags := runTypedFixture(t, "simdeterminism", "internal/sim", "simdeterminism")
	checkFixture(t, fixtureFile("simdeterminism"), diags)
}

func TestSimDeterminismOutOfScope(t *testing.T) {
	// The same violations in a non-simulation package are fine: real
	// servers may read the wall clock.
	for _, dir := range []string{"internal/telemetry", "examples/quickstart", "internal/meshcrypto"} {
		if diags := runTypedFixture(t, "simdeterminism", dir, "simdeterminism"); len(diags) != 0 {
			t.Errorf("dir %q: expected no diagnostics out of scope, got %v", dir, diags)
		}
	}
}

func TestSimDeterminismScope(t *testing.T) {
	for dir, want := range map[string]bool{
		"":                    true,
		"internal/sim":        true,
		"internal/sim/sub":    true,
		"internal/bench":      true,
		"internal/keyserver":  true,
		"internal/telemetry":  false,
		"cmd/canalvet":        false,
		"examples/quickstart": false,
	} {
		if got := inSimScope(dir); got != want {
			t.Errorf("inSimScope(%q) = %v, want %v", dir, got, want)
		}
	}
}

func TestMapOrder(t *testing.T) {
	diags := runTypedFixture(t, "maporder", "internal/anomaly", "maporder")
	checkFixture(t, fixtureFile("maporder"), diags)
}

func TestAtomicMix(t *testing.T) {
	diags := runTypedFixture(t, "atomicmix", "internal/telemetry", "atomicmix")
	checkFixture(t, fixtureFile("atomicmix"), diags)
}

func TestLockSafe(t *testing.T) {
	diags := runTypedFixture(t, "locksafe", "internal/overlay", "locksafe")
	checkFixture(t, fixtureFile("locksafe"), diags)
}

func TestErrDrop(t *testing.T) {
	diags := runTypedFixture(t, "errdrop", "internal/keyserver", "errdrop")
	checkFixture(t, fixtureFile("errdrop"), diags)
}

// TestErrDropSkipsTests proves errdrop ignores _test.go files: the same
// fixture source parsed as a test file yields nothing.
func TestErrDropSkipsTests(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "errdrop"), "internal/keyserver")
	if err != nil {
		t.Fatal(err)
	}
	TypeCheck([]*Package{pkg})
	for i := range pkg.Files {
		pkg.Files[i].Test = true
	}
	var diags []Diagnostic
	ErrDrop().Run(pkg, &Reporter{fset: pkg.Fset, analyzer: "errdrop", out: &diags})
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics in test files, got %v", diags)
	}
}

func TestUnitSafe(t *testing.T) {
	diags := runTypedFixture(t, "unitsafe", "internal/sim", "unitsafe")
	checkFixture(t, fixtureFile("unitsafe"), diags)
}

func TestCtxFlow(t *testing.T) {
	diags := runTypedFixture(t, "ctxflow", "internal/gateway", "ctxflow")
	checkFixture(t, fixtureFile("ctxflow"), diags)
}

func TestChanLeak(t *testing.T) {
	diags := runTypedFixture(t, "chanleak", "internal/bench", "chanleak")
	checkFixture(t, fixtureFile("chanleak"), diags)
}

// TestDirectivePipeline runs the full suite (analyzers + directive
// processing) over the directive fixture.
func TestDirectivePipeline(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "directive"), "internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, Analyzers())
	checkFixture(t, fixtureFile("directive"), diags)
	// The stale-directive report must carry the rotting reason text, the
	// Stale marker (so only -stale-as-error counts it), and a deletion fix.
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "suppresses nothing") {
			continue
		}
		found = true
		if !d.Stale {
			t.Error("stale directive diagnostic not marked Stale")
		}
		if !strings.Contains(d.Message, "stale reason:") {
			t.Errorf("stale report lacks the reason text: %s", d.Message)
		}
		if d.Fix == nil || len(d.Fix.Edits) != 1 || d.Fix.Edits[0].NewText != "" {
			t.Errorf("stale report lacks a deletion fix: %+v", d.Fix)
		}
	}
	if !found {
		t.Error("directive fixture produced no stale-directive report")
	}
}

// selfHostDirectives pins the module's //canal:allow count: every new
// suppression is a conscious, reviewed decision, and deleting code must
// also delete its directives (stale ones already fail -stale-as-error).
const selfHostDirectives = 77

// selfHostBoundaries pins the module's //canal:boundary count the same way:
// each one declares an audited isolation point the taint engine trusts, so
// adding one is a reviewed security decision (currently just
// GatewayServer.fail, which writes only the requesting tenant's own
// ResponseWriter).
const selfHostBoundaries = 1

// TestSelfHost runs the full suite over this repository: the codebase must
// stay canalvet-clean, with every intentional violation carrying a justified
// //canal:allow. This is the regression gate for the engine too — all
// fourteen analyzers run with full type information over every package, any
// type-check failure surfaces here as a "typecheck" diagnostic, the
// call-graph four see the module-wide graph, and the taint trio sees the
// dataflow engine built on top of it.
func TestSelfHost(t *testing.T) {
	if n := len(Analyzers()); n != 14 {
		t.Fatalf("suite has %d analyzers, want 14 (7 per-package + 4 call-graph + 3 taint); the count is frozen", n)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost the module", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Module != "canalmesh" {
			t.Fatalf("package %q loaded under module %q", p.Dir, p.Module)
		}
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
	for _, p := range pkgs {
		if p.TypesInfo == nil || p.TypesPkg == nil {
			t.Errorf("package %q missing type information after Run", p.Dir)
		}
	}
	total := 0
	boundaries := 0
	for _, p := range pkgs {
		dirs, _ := ParseDirectives(p)
		total += len(dirs)
		boundaries += CountBoundaries(p)
	}
	if total != selfHostDirectives {
		t.Errorf("module carries %d //canal:allow directives, want exactly %d; update selfHostDirectives only for a reviewed suppression", total, selfHostDirectives)
	}
	if boundaries != selfHostBoundaries {
		t.Errorf("module carries %d //canal:boundary declarations, want exactly %d; update selfHostBoundaries only for a reviewed isolation audit", boundaries, selfHostBoundaries)
	}
}
