package canal

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docPathToken matches a module directory (internal/…, cmd/…, examples/…)
// or a Go file path named in a document.
var docPathToken = regexp.MustCompile(`\b(?:[A-Za-z0-9][A-Za-z0-9_./-]*\.go|(?:internal|cmd|examples)(?:/[A-Za-z0-9_-]+)+)\b`)

// currentDocs are the documents that describe the module as it is. ROADMAP
// and CHANGES are history and may name what is gone.
var currentDocs = []string{"PAPER.md", "DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameExistingPaths keeps the current-state documents honest: every
// package directory and Go file PAPER.md, DESIGN.md, README.md,
// EXPERIMENTS.md and the verify run-book (.claude/skills/verify/SKILL.md,
// whose commands are copied as written) name must exist. A path with a
// slash is resolved from the module root; a bare file name must exist
// somewhere in the module.
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
	for _, doc := range currentDocs {
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

// docTestFlag matches a go test selection flag and its pattern, quoted or
// bare, where a command names it (not inside a word like "run-to-run").
var docTestFlag = regexp.MustCompile("(?:^|[\\s`(])-(run|bench|fuzz)[ =]('[^']*'|\"[^\"]*\"|[^\\s`'\"]+)")

// testFunc matches the declaration of a function go test runs.
var testFunc = regexp.MustCompile(`(?m)^func ((Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)

// TestDocsNameExistingTests keeps the commands in the current-state
// documents runnable: every -run, -bench or -fuzz pattern they give must
// select a function of the module that the flag runs (-run a test, fuzz
// target or example, -bench a benchmark, -fuzz a fuzz target). Each
// alternative of a pattern, its anchors and groups dropped, must match on
// its own, so a list of names fails when any one of them is gone. '^$', the
// run-nothing pattern, selects nothing and is allowed.
func TestDocsNameExistingTests(t *testing.T) {
	funcs := map[string][]string{} // Test, Benchmark, Fuzz, Example -> names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[2]] = append(funcs[m[2]], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string][]string{
		"run":   {"Test", "Fuzz", "Example"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}
	for _, doc := range currentDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docTestFlag.FindAllStringSubmatch(string(text), -1) {
			flag, pattern := m[1], strings.Trim(m[2], `'"`)
			top, _, _ := strings.Cut(pattern, "/") // the subtest part is not checked
			for _, alt := range strings.Split(strings.NewReplacer("^", "", "$", "", "(", "", ")", "").Replace(top), "|") {
				if alt == "" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -%s %s: %v", doc, flag, m[2], err)
					continue
				}
				found := false
				for _, kind := range runs[flag] {
					found = found || slices.ContainsFunc(funcs[kind], re.MatchString)
				}
				if !found {
					t.Errorf("%s: -%s %s selects nothing: no %s function of the module matches %q", doc, flag, m[2], strings.Join(runs[flag], ", "), alt)
				}
			}
		}
	}
}
