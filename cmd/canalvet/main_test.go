package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a one-package module in a fresh temp dir and
// returns the dir.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/vetcase\n\ngo 1.23\n",
		"a.go":   src,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunCleanModuleExitsZero: nothing to report means exit 0 and an
// empty stdout, the contract verify.sh relies on.
func TestRunCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, "package vetcase\n\nfunc Add(a, b int) int { return a + b }\n")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "-runs", "2", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean module printed diagnostics:\n%s", stdout.String())
	}
}

// TestRunStaleDirectiveExitsOne: a //canal:allow that suppresses nothing
// is a finding like any other, so it is printed and fails the gate.
func TestRunStaleDirectiveExitsOne(t *testing.T) {
	dir := writeModule(t, "package vetcase\n\n//canal:allow maporder nothing here ranges over a map\nfunc Add(a, b int) int { return a + b }\n")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "a.go:3:1: [directive] canal:allow maporder suppresses nothing") {
		t.Errorf("stdout lacks the stale-directive line:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Errorf("stdout has %d lines, want 1:\n%s", n, out)
	}
}

// TestRunPrintsPathsRelativeToCwd lints the same module from two checkouts
// of it, each time from the checkout's root: the output must be identical,
// with no trace of either checkout's path, as go vet prints it.
func TestRunPrintsPathsRelativeToCwd(t *testing.T) {
	src := "package vetcase\n\n//canal:allow maporder nothing here ranges over a map\nfunc Add(a, b int) int { return a + b }\n"
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var outs []string
	for _, dir := range []string{writeModule(t, src), writeModule(t, src)} {
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
			t.Fatalf("in %s: exit %d, want 1\nstderr:\n%s", dir, code, stderr.String())
		}
		if strings.Contains(stdout.String(), dir) {
			t.Errorf("output names the checkout %s:\n%s", dir, stdout.String())
		}
		outs = append(outs, stdout.String())
	}
	if outs[0] != outs[1] || !strings.HasPrefix(outs[0], "a.go:3:1: [directive] ") {
		t.Errorf("outputs from the two checkouts:\n%q\n%q\nwant the same line, naming a.go", outs[0], outs[1])
	}
}
