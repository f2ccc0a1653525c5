package canal

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// docPathToken matches a module directory (internal/…, cmd/…, examples/…)
// or a Go file path named in a document.
var docPathToken = regexp.MustCompile(`\b(?:[A-Za-z0-9][A-Za-z0-9_./-]*\.go|(?:internal|cmd|examples)(?:/[A-Za-z0-9_-]+)+)\b`)

// TestDocsNameExistingPaths keeps the current-state documents honest: every
// package directory and Go file PAPER.md, DESIGN.md, README.md,
// EXPERIMENTS.md and the verify run-book (.claude/skills/verify/SKILL.md,
// whose commands are copied as written) name must exist. A path with a
// slash is resolved from the module root; a bare file name must exist
// somewhere in the module. ROADMAP and CHANGES are history and may name
// what is gone.
func TestDocsNameExistingPaths(t *testing.T) {
	goFiles := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && d.Name()[0] == '.' {
			return filepath.SkipDir
		}
		if !d.IsDir() && filepath.Ext(path) == ".go" {
			goFiles[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"PAPER.md", "DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, tok := range docPathToken.FindAllString(string(text), -1) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			if filepath.Base(tok) == tok {
				if !goFiles[tok] {
					t.Errorf("%s names %s, which no directory of the module holds", doc, tok)
				}
				continue
			}
			if _, err := os.Stat(tok); err != nil {
				t.Errorf("%s names %s: %v", doc, tok, err)
			}
		}
	}
}
