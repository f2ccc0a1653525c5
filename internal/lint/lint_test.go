package lint

import (
	"fmt"
	"maps"
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
// partial information) and runs the single named analyzer over it,
// without directive processing.
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
	for _, a := range Analyzers() {
		if a.Name == analyzer {
			return analyze(pkg, []*Analyzer{a})
		}
	}
	t.Fatalf("no analyzer %q", analyzer)
	return nil
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
		"":                    false,
		"internal/sim":        true,
		"internal/sim/sub":    true,
		"internal/bench":      true,
		"internal/keyserver":  true,
		"internal/proxy":      true,
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
	diags := runTypedFixture(t, "maporder", "internal/cluster", "maporder")
	checkFixture(t, fixtureFile("maporder"), diags)
}

func TestUnitSafe(t *testing.T) {
	diags := runTypedFixture(t, "unitsafe", "internal/sim", "unitsafe")
	checkFixture(t, fixtureFile("unitsafe"), diags)
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
	// The stale-directive report must carry the rotting reason text.
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "suppresses nothing") {
			continue
		}
		found = true
		if !strings.Contains(d.Message, "stale reason:") {
			t.Errorf("stale report lacks the reason text: %s", d.Message)
		}
	}
	if !found {
		t.Error("directive fixture produced no stale-directive report")
	}
}

// TestTaintSubsetDirectives checks that a subset run judges staleness only
// for the analyzers it runs: with unitsafe alone, the directive fixture's
// simdeterminism and maporder directives are not stale, and only the
// malformed ones are reported. (The name predates the fixture: the check
// once ran over the taint fixture.)
func TestTaintSubsetDirectives(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "directive"), "internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{UnitSafe()}) {
		if d.Analyzer != "directive" || strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("unitsafe-only run reported %s", d)
		}
	}
}

// selfHostDirectives pins the module's //canal:allow census, analyzer by
// analyzer: every new suppression is a conscious, reviewed decision, and
// deleting code must also delete its directives (stale ones already fail
// canalvet). DESIGN §6's census table carries the same numbers; an
// analyzer absent here carries no allows.
var selfHostDirectives = map[string]int{
	"simdeterminism": 20,
	"unitsafe":       13,
}

// TestSelfHost runs the full suite over this repository: the codebase must
// stay canalvet-clean, with every intentional violation carrying a justified
// //canal:allow. This is the regression gate for the engine too — all three
// analyzers run with full type information over every package, any
// type-check failure surfaces here as a "typecheck" diagnostic.
func TestSelfHost(t *testing.T) {
	if n := len(Analyzers()); n != 3 {
		t.Fatalf("suite has %d analyzers, want 3; the count is frozen", n)
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
	allows := map[string]int{}
	for _, p := range pkgs {
		dirs, _ := ParseDirectives(p)
		for _, d := range dirs {
			allows[d.Analyzer]++
		}
	}
	if !maps.Equal(allows, selfHostDirectives) {
		t.Errorf("module carries //canal:allow directives %v, want exactly %v; update selfHostDirectives (and DESIGN §6's census) only for a reviewed suppression", allows, selfHostDirectives)
	}
}
