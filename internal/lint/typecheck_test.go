package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// loadEngineModule loads and type-checks one of the mini-modules under
// testdata/engine (each has its own go.mod, so import paths resolve under
// the fixture's module name, not canalmesh).
func loadEngineModule(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, _, err := LoadModule(filepath.Join("testdata", "engine", name))
	if err != nil {
		t.Fatal(err)
	}
	TypeCheck(pkgs)
	return pkgs
}

func importOf(tp *types.Package, path string) *types.Package {
	if tp == nil {
		return nil
	}
	for _, imp := range tp.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// TestTypeCheckDiamond proves the importer resolves a diamond a -> {b, c}
// -> d in dependency order and hands both arms the same cached base.
func TestTypeCheckDiamond(t *testing.T) {
	pkgs := loadEngineModule(t, "diamond")
	if len(pkgs) != 4 {
		t.Fatalf("loaded %d packages, want 4", len(pkgs))
	}
	byDir := map[string]*Package{}
	for _, p := range pkgs {
		byDir[p.Dir] = p
		for _, d := range p.TypeErrors {
			t.Errorf("unexpected type error in %q: %s", p.Dir, d)
		}
		if p.TypesPkg == nil || p.TypesInfo == nil {
			t.Errorf("package %q missing type information", p.Dir)
		}
	}
	db := importOf(byDir["b"].TypesPkg, "diamond/d")
	dc := importOf(byDir["c"].TypesPkg, "diamond/d")
	if db == nil || dc == nil {
		t.Fatal("arms of the diamond did not resolve the shared base")
	}
	if db != dc {
		t.Error("diamond base type-checked twice; the import view must be cached")
	}
	if byDir["d"].TypesPkg != db {
		t.Error("the base package's own TypesPkg is not the cached import view")
	}
}

// TestTypeCheckCycle proves an import cycle is reported as a typecheck
// diagnostic instead of hanging or overflowing the resolver.
func TestTypeCheckCycle(t *testing.T) {
	pkgs := loadEngineModule(t, "cycle")
	found := false
	for _, p := range pkgs {
		for _, d := range p.TypeErrors {
			if d.Analyzer != "typecheck" {
				t.Errorf("type error attributed to %q, want typecheck", d.Analyzer)
			}
			if strings.Contains(d.Message, "import cycle") {
				found = true
			}
		}
	}
	if !found {
		t.Error("cyclic module produced no \"import cycle\" diagnostic")
	}
}

// TestTypeCheckBroken proves a package that fails type-checking degrades
// to diagnostics — through TypeCheck and through the full Run pipeline —
// rather than panicking or aborting.
func TestTypeCheckBroken(t *testing.T) {
	pkgs := loadEngineModule(t, "broken")
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.TypeErrors) == 0 {
		t.Fatal("broken package produced no type errors")
	}
	for _, d := range p.TypeErrors {
		if d.Analyzer != "typecheck" {
			t.Errorf("type error attributed to %q, want typecheck", d.Analyzer)
		}
	}
	if !strings.Contains(p.TypeErrors[0].Message, "undefined") {
		t.Errorf("unexpected first type error: %s", p.TypeErrors[0])
	}
	if p.TypesPkg == nil {
		t.Error("broken package lost its partial type information")
	}

	// The full pipeline must surface the same failure as diagnostics.
	fresh, _, err := LoadModule(filepath.Join("testdata", "engine", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(fresh, Analyzers())
	found := false
	for _, d := range diags {
		if d.Analyzer != "typecheck" {
			// The analyzers read types; where the checker produced none
			// they stay silent instead of guessing from syntax.
			t.Errorf("analyzer fired on untyped code: %s", d)
		}
		if strings.Contains(d.Message, "undefined") {
			found = true
		}
	}
	if !found {
		t.Errorf("Run over a broken package dropped the typecheck diagnostics: %v", diags)
	}
}
