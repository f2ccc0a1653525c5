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

// TestInterprocDeterminism requires the call-graph analyzers' fixtures —
// the seeded hot-path allocation fixture and the simdeterminism fixture —
// to produce byte-identical diagnostics across two independent loads and
// runs (fresh FileSets, fresh type-checkers, fresh graphs).
func TestInterprocDeterminism(t *testing.T) {
	render := func(diags []Diagnostic) string {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
		return b.String()
	}
	one := func() [2]string {
		return [2]string{
			render(runTypedFixture(t, "hotpath", "internal/l7", "hotpath")),
			render(runTypedFixture(t, "simdeterminism", "internal/sim", "simdeterminism")),
		}
	}
	first, second := one(), one()
	for i, name := range []string{"hotpath fixture", "simdeterminism fixture"} {
		if first[i] == "" {
			t.Errorf("%s produced no diagnostics; the determinism check is vacuous", name)
		}
		if first[i] != second[i] {
			t.Errorf("%s diverged across runs:\n--- first\n%s--- second\n%s", name, first[i], second[i])
		}
	}
}
