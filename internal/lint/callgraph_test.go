package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// graphOver builds the call graph over a loaded engine mini-module.
func graphOver(t *testing.T, name string) *CallGraph {
	t.Helper()
	return BuildCallGraph(loadEngineModule(t, name))
}

func findEdge(n *FuncNode, callee string) *CallEdge {
	for i := range n.Calls {
		if n.Calls[i].Callee == callee {
			return &n.Calls[i]
		}
	}
	return nil
}

// TestCallGraphInterfaceDispatch proves CHA fans an interface method call
// out to every in-module implementation, value and pointer receivers alike.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := graphOver(t, "callgraph")
	chime := g.Nodes["cgfix/a.Chime"]
	if chime == nil {
		t.Fatalf("missing node cgfix/a.Chime; have %v", g.Keys())
	}
	for _, want := range []string{"cgfix/a.(Bell).Ring", "cgfix/a.(*Gong).Ring"} {
		e := findEdge(chime, want)
		if e == nil {
			t.Fatalf("Chime lacks CHA edge to %s: %+v", want, chime.Calls)
		}
		if !e.Iface {
			t.Errorf("edge to %s not marked Iface", want)
		}
	}
}

// TestCallGraphMethodValue proves a method value passed as a callback
// becomes a may-call Ref edge alongside the static call to the receiver
// of the callback.
func TestCallGraphMethodValue(t *testing.T) {
	g := graphOver(t, "callgraph")
	h := g.Nodes["cgfix/a.Handle"]
	if h == nil {
		t.Fatal("missing node cgfix/a.Handle")
	}
	e := findEdge(h, "cgfix/a.(Bell).Ring")
	if e == nil {
		t.Fatalf("Handle lacks method-value edge to (Bell).Ring: %+v", h.Calls)
	}
	if !e.Ref {
		t.Error("method-value edge not marked Ref")
	}
	if findEdge(h, "cgfix/a.Apply") == nil {
		t.Error("Handle lacks the static edge to Apply")
	}
}

// TestCallGraphRecursion proves reachability terminates on direct and
// mutual recursion, and that Reachable excludes the start node.
func TestCallGraphRecursion(t *testing.T) {
	g := graphOver(t, "callgraph")
	if n := g.Nodes["cgfix/a.Countdown"]; n == nil || findEdge(n, "cgfix/a.Countdown") == nil {
		t.Fatal("Countdown lacks its self-edge")
	}
	if got := g.Reachable("cgfix/a.Countdown"); len(got) != 0 {
		t.Errorf("Reachable(Countdown) = %v, want empty (start excluded)", got)
	}
	even := g.Reachable("cgfix/a.Even")
	if len(even) != 1 || even[0] != "cgfix/a.Odd" {
		t.Errorf("Reachable(Even) = %v, want [cgfix/a.Odd]", even)
	}
}

// TestCallGraphTestUnitEdges proves the cross-unit story: CHA sees
// test-only implementations, reachability refuses to walk into them, and
// external-test callers get edges into the primary unit.
func TestCallGraphTestUnitEdges(t *testing.T) {
	g := graphOver(t, "callgraph")
	chime := g.Nodes["cgfix/a.Chime"]
	if chime == nil {
		t.Fatal("missing node cgfix/a.Chime")
	}
	testImpl := "cgfix/a_test.(loudRinger).Ring"
	if findEdge(chime, testImpl) == nil {
		t.Fatalf("CHA missed the test-unit implementation %s: %+v", testImpl, chime.Calls)
	}
	if n := g.Nodes[testImpl]; n == nil || !n.Test {
		t.Fatalf("test-unit implementation not indexed as a test node: %+v", n)
	}
	for _, k := range g.Reachable("cgfix/a.Chime") {
		if g.Nodes[k].Test {
			t.Errorf("reachability entered test node %s", k)
		}
	}
	ring := g.Nodes["cgfix/a_test.ringAll"]
	if ring == nil || !ring.Test {
		t.Fatalf("external-test caller not indexed: %+v", ring)
	}
	for _, want := range []string{"cgfix/a.Chime", "cgfix/a.Handle"} {
		if findEdge(ring, want) == nil {
			t.Errorf("ringAll lacks cross-unit edge to %s: %+v", want, ring.Calls)
		}
	}
}

// TestCallGraphLookup exercises the CLI resolution rules: exact key,
// unique suffix, and ambiguity.
func TestCallGraphLookup(t *testing.T) {
	g := graphOver(t, "callgraph")
	if n := g.Lookup("cgfix/a.Chime"); n == nil || n.Key != "cgfix/a.Chime" {
		t.Errorf("exact lookup failed: %+v", n)
	}
	if n := g.Lookup("Chime"); n == nil || n.Key != "cgfix/a.Chime" {
		t.Errorf("suffix lookup failed: %+v", n)
	}
	if n := g.Lookup("(Bell).Ring"); n == nil || n.Key != "cgfix/a.(Bell).Ring" {
		t.Errorf("receiver suffix lookup failed: %+v", n)
	}
	if n := g.Lookup("Ring"); n != nil {
		t.Errorf("ambiguous lookup resolved to %s, want nil", n.Key)
	}
}

// TestHotPathFixture runs the hotpath analyzer over its want fixture (a
// one-package module).
func TestHotPathFixture(t *testing.T) {
	diags := runTypedFixture(t, "hotpath", "internal/l7", "hotpath")
	checkFixture(t, fixtureFile("hotpath"), diags)
}

// TestHotPathDirectives runs the full pipeline over the directive fixture:
// a justified //canal:allow hotpath suppresses, a rotted one reports stale.
func TestHotPathDirectives(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "hotpathallow"), "internal/l7")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{HotPath()})
	checkFixture(t, fixtureFile("hotpathallow"), diags)
}

// TestLockOrderFixture runs the lockorder analyzer over its single-package
// want fixture.
func TestLockOrderFixture(t *testing.T) {
	diags := runTypedFixture(t, "lockorder", "internal/overlay", "lockorder")
	checkFixture(t, fixtureFile("lockorder"), diags)
}

// checkModuleFixture checks want comments in every source file of a
// mini-module against the diagnostics landing in that file.
func checkModuleFixture(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	for _, p := range pkgs {
		for _, sf := range p.Files {
			var own []Diagnostic
			for _, d := range diags {
				if d.Pos.Filename == sf.Name {
					own = append(own, d)
				}
			}
			checkFixture(t, sf.Name, own)
		}
	}
}

// TestLockCycleModule proves the cross-package inversion fixture: both
// legs of the A/B cycle report with their chains, and the suppressed leg
// of the C/D cycle stays quiet while the core-side leg reports.
func TestLockCycleModule(t *testing.T) {
	pkgs, _, err := LoadModule(filepath.Join("testdata", "engine", "lockcycle"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{LockOrder()})
	checkModuleFixture(t, pkgs, diags)
	// Both acquisition chains must be spelled out, including the leg that
	// reaches its second lock through a call into the other package.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "takes core.A.Mu via core.TouchA") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic spells out the call-mediated leg: %v", diags)
	}
}

// TestTransDetModule proves transitive determinism over a canalmesh-named
// mini-module: sim-scope call sites into helpers that reach the clock or
// global rand report (with the helper chain), suppression and staleness
// work, and propagation stops when a path re-enters sim scope.
func TestTransDetModule(t *testing.T) {
	pkgs, _, err := LoadModule(filepath.Join("testdata", "engine", "transdet"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{TransDeterminism()})
	checkModuleFixture(t, pkgs, diags)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "(via internal/clockutil.Stamp -> internal/clockutil.nanos)") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic carries the via chain through the helper package: %v", diags)
	}
}

// TestInterprocDeterminism is the ISSUE 7 acceptance gate: the seeded
// hot-path allocation fixture, the lockorder cycle module, and the
// transdeterminism module each produce byte-identical diagnostics across
// two independent loads and runs (fresh FileSets, fresh type-checkers,
// fresh graphs).
func TestInterprocDeterminism(t *testing.T) {
	render := func(diags []Diagnostic) string {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
		return b.String()
	}
	one := func() [3]string {
		var out [3]string
		out[0] = render(runTypedFixture(t, "hotpath", "internal/l7", "hotpath"))
		lc, _, err := LoadModule(filepath.Join("testdata", "engine", "lockcycle"))
		if err != nil {
			t.Fatal(err)
		}
		out[1] = render(Run(lc, []*Analyzer{LockOrder()}))
		td, _, err := LoadModule(filepath.Join("testdata", "engine", "transdet"))
		if err != nil {
			t.Fatal(err)
		}
		out[2] = render(Run(td, []*Analyzer{TransDeterminism()}))
		return out
	}
	first, second := one(), one()
	for i, name := range []string{"hotpath fixture", "lockcycle module", "transdet module"} {
		if first[i] == "" {
			t.Errorf("%s produced no diagnostics; the determinism check is vacuous", name)
		}
		if first[i] != second[i] {
			t.Errorf("%s diverged across runs:\n--- first\n%s--- second\n%s", name, first[i], second[i])
		}
	}
}
