package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// directiveMarker introduces a suppression comment. The full form is
//
//	//canal:allow <analyzer> <reason...>
//
// and, like //go: directives, it must have no space after the slashes.
const directiveMarker = "//canal:allow"

// Directive is one parsed, well-formed suppression.
type Directive struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	used     bool
}

// ParseDirectives extracts every //canal:allow directive in the package.
// Malformed directives — unknown analyzer name, missing reason — come back
// as diagnostics under the pseudo-analyzer "directive" rather than silently
// suppressing nothing.
func ParseDirectives(p *Package) ([]*Directive, []Diagnostic) {
	names := AnalyzerNames()
	var dirs []*Directive
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{Pos: p.Fset.Position(pos), Analyzer: "directive", Message: msg})
	}
	for _, sf := range p.Files {
		for _, cg := range sf.AST.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directiveMarker) {
					continue
				}
				rest := strings.TrimPrefix(text, directiveMarker)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //canal:allowfoo — not ours.
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "canal:allow needs an analyzer name and a reason")
					continue
				}
				if !names[fields[0]] {
					report(c.Pos(), "canal:allow names unknown analyzer \""+fields[0]+"\"")
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "canal:allow "+fields[0]+" needs a reason")
					continue
				}
				dirs = append(dirs, &Directive{
					Pos:      p.Fset.Position(c.Pos()),
					Analyzer: fields[0],
					Reason:   strings.TrimSpace(rest[strings.Index(rest, fields[0])+len(fields[0]):]),
				})
			}
		}
	}
	return dirs, bad
}

// ApplyDirectives filters diags through the suppressions: a directive
// covers diagnostics of its analyzer in the same file on the directive's
// own line (trailing comment) or the line directly below (standalone
// comment above the statement). Directives that suppressed nothing are
// returned as "directive" diagnostics so stale annotations surface instead
// of rotting.
func ApplyDirectives(diags []Diagnostic, dirs []*Directive) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.Analyzer == d.Analyzer &&
				dir.Pos.Filename == d.Pos.Filename &&
				(dir.Pos.Line == d.Pos.Line || dir.Pos.Line+1 == d.Pos.Line) {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			// Stale directives carry their reason text, so the report shows
			// what justification is rotting.
			out = append(out, Diagnostic{
				Pos:      dir.Pos,
				Analyzer: "directive",
				Message: fmt.Sprintf("canal:allow %s suppresses nothing (stale reason: %q; remove the directive)",
					dir.Analyzer, dir.Reason),
			})
		}
	}
	return out
}
