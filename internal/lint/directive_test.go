package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSource builds a single-file Package from source text.
func parseSource(t *testing.T, dir, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		Dir:   dir,
		Name:  f.Name.Name,
		Fset:  fset,
		Files: []SourceFile{{Name: "src.go", AST: f}},
	}
}

func TestParseDirectivesWellFormed(t *testing.T) {
	pkg := parseSource(t, "internal/sim", `package x

func f() {
	//canal:allow simdeterminism the sim harness epoch is wall-clock anchored
	g()
	h() //canal:allow unitsafe the literal is a count of nanoseconds by contract
}

func g() {}
func h() {}
`)
	dirs, bad := ParseDirectives(pkg)
	if len(bad) != 0 {
		t.Fatalf("unexpected problems: %v", bad)
	}
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want 2", len(dirs))
	}
	if dirs[0].Analyzer != "simdeterminism" || !strings.Contains(dirs[0].Reason, "wall-clock anchored") {
		t.Errorf("directive 0 parsed as %+v", dirs[0])
	}
	if dirs[1].Analyzer != "unitsafe" || !strings.Contains(dirs[1].Reason, "count of nanoseconds") {
		t.Errorf("directive 1 parsed as %+v", dirs[1])
	}
}

func TestParseDirectivesMalformed(t *testing.T) {
	cases := []struct {
		name, src, wantMsg string
	}{
		{
			name:    "unknown analyzer",
			src:     "package x\n\n//canal:allow nosuchcheck because reasons\nfunc f() {}\n",
			wantMsg: `unknown analyzer "nosuchcheck"`,
		},
		{
			name:    "missing reason",
			src:     "package x\n\n//canal:allow maporder\nfunc f() {}\n",
			wantMsg: "needs a reason",
		},
		{
			name:    "empty directive",
			src:     "package x\n\n//canal:allow\nfunc f() {}\n",
			wantMsg: "needs an analyzer name and a reason",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, bad := ParseDirectives(parseSource(t, "", tc.src))
			if len(bad) != 1 {
				t.Fatalf("got %d problems, want 1: %v", len(bad), bad)
			}
			if bad[0].Analyzer != "directive" || !strings.Contains(bad[0].Message, tc.wantMsg) {
				t.Errorf("got %q, want message containing %q", bad[0].Message, tc.wantMsg)
			}
		})
	}
}

// TestParseDirectivesIgnoresLookalikes: ordinary comments mentioning the
// marker mid-text, and distinct markers, must not parse as directives.
func TestParseDirectivesIgnoresLookalikes(t *testing.T) {
	pkg := parseSource(t, "", `package x

// The //canal:allow marker is documented here but this is prose.
//canal:allowance is a different word
func f() {}
`)
	dirs, bad := ParseDirectives(pkg)
	if len(dirs) != 0 || len(bad) != 0 {
		t.Fatalf("lookalikes parsed: dirs=%v bad=%v", dirs, bad)
	}
}

func diagAt(file string, line int, analyzer string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  "boom",
	}
}

func TestApplyDirectivesMatching(t *testing.T) {
	dir := &Directive{
		Pos:      token.Position{Filename: "src.go", Line: 10},
		Analyzer: "unitsafe",
		Reason:   "r",
	}
	// Same line and next line suppress; farther lines, other files, and
	// other analyzers do not.
	out := ApplyDirectives([]Diagnostic{
		diagAt("src.go", 10, "unitsafe"),
		diagAt("src.go", 11, "unitsafe"),
	}, []*Directive{dir})
	if len(out) != 0 {
		t.Errorf("same/next line should be suppressed, got %v", out)
	}

	for _, d := range []Diagnostic{
		diagAt("src.go", 12, "unitsafe"),
		diagAt("other.go", 10, "unitsafe"),
		diagAt("src.go", 10, "maporder"),
	} {
		dir := &Directive{Pos: token.Position{Filename: "src.go", Line: 10}, Analyzer: "unitsafe", Reason: "r"}
		out := ApplyDirectives([]Diagnostic{d}, []*Directive{dir})
		// The mismatched diagnostic survives and the directive reports
		// itself as stale.
		if len(out) != 2 {
			t.Fatalf("diag %v: got %d diagnostics, want surviving diag + stale directive: %v", d, len(out), out)
		}
		if out[0].Message != "boom" {
			t.Errorf("original diagnostic lost: %v", out)
		}
		if !strings.Contains(out[1].Message, "suppresses nothing") {
			t.Errorf("stale directive not reported: %v", out)
		}
	}
}

func TestApplyDirectivesUnused(t *testing.T) {
	dir := &Directive{Pos: token.Position{Filename: "src.go", Line: 3}, Analyzer: "maporder", Reason: "r"}
	out := ApplyDirectives(nil, []*Directive{dir})
	if len(out) != 1 || !strings.Contains(out[0].Message, "suppresses nothing") {
		t.Fatalf("unused directive not reported: %v", out)
	}
	if out[0].Pos.Line != 3 || out[0].Analyzer != "directive" {
		t.Errorf("unused report misplaced: %+v", out[0])
	}
}

// TestApplyDirectivesOneDirectiveManyDiags: a single directive may cover
// several diagnostics of its analyzer on the covered lines (e.g. two
// time.Now calls in one expression).
func TestApplyDirectivesOneDirectiveManyDiags(t *testing.T) {
	dir := &Directive{Pos: token.Position{Filename: "src.go", Line: 5}, Analyzer: "simdeterminism", Reason: "r"}
	out := ApplyDirectives([]Diagnostic{
		diagAt("src.go", 5, "simdeterminism"),
		diagAt("src.go", 5, "simdeterminism"),
		diagAt("src.go", 6, "simdeterminism"),
	}, []*Directive{dir})
	if len(out) != 0 {
		t.Errorf("directive should cover all diagnostics on its lines, got %v", out)
	}
}
