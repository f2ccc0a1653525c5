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
