// Command canalvet runs the repository's invariant linters (internal/lint)
// over the module. The suite type-checks the whole module from source —
// stdlib included — once, and every analyzer checks one package at a time
// on that one engine: no wall clock or global math/rand in simulation
// packages (simdeterminism), no map-iteration order in results (maporder)
// and unit-safe duration arithmetic (unitsafe). Tenant isolation and the
// request paths' allocation contract are run-time checks, not among these:
// TestPooledStateTenantIsolation and TestServeHTTPAllocs in the root
// package, TestHotPathAllocs in internal/bench.
//
// Usage:
//
//	canalvet ./...            # lint the whole module containing the cwd
//	canalvet                  # same
//	canalvet -list            # print the analyzers and exit
//	canalvet -runs 2 ./...    # repeat the analysis, prove determinism
//
// Intentional violations are suppressed inline with a justified directive:
//
//	//canal:allow <analyzer> <reason...>
//
// canalvet prints every surviving diagnostic and exits 1 when there is
// any — malformed directives and stale ones (a //canal:allow that
// suppresses nothing) included — so it can gate verify.sh. Like go vet, it
// names each file relative to the working directory when that is shorter,
// so a finding reads the same from any checkout of the module.
//
// -runs N repeats the analysis N times over the one parsed, type-checked
// module. Every finding is recomputed each run, so the comparison is
// non-vacuous: each run's diagnostics are compared against the first and
// any divergence exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"canalmesh/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, lints the module and returns
// the exit status (0 clean, 1 diagnostics, 2 usage, load or determinism
// failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("canalvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	root := fs.String("root", ".", "directory inside the module to lint")
	runs := fs.Int("runs", 1, "repeat the analysis N times and require identical diagnostics")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	// Package patterns beyond "./..." are not needed for a single-module
	// repo; accept and ignore the conventional argument.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(stderr, "canalvet: only ./... is supported, got %q\n", arg)
			return 2
		}
	}
	if *runs < 1 {
		fmt.Fprintln(stderr, "canalvet: -runs must be at least 1")
		return 2
	}

	modRoot, err := lint.FindModuleRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "canalvet:", err)
		return 2
	}
	pkgs, _, err := lint.LoadModule(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "canalvet:", err)
		return 2
	}
	lint.TypeCheck(pkgs)

	// Without a working directory, Rel fails and the paths stay absolute.
	cwd, _ := os.Getwd()
	suite := lint.Analyzers()
	diags := lint.Run(pkgs, suite)
	first := renderDiags(diags, cwd)
	for run := 2; run <= *runs; run++ {
		if render := renderDiags(lint.Run(pkgs, suite), cwd); render != first {
			fmt.Fprintf(stderr, "canalvet: nondeterministic diagnostics: run %d differs from run 1\n--- run 1\n%s--- run %d\n%s", run, first, run, render)
			return 2
		}
	}

	if len(diags) > 0 {
		fmt.Fprint(stdout, first)
		fmt.Fprintf(stderr, "canalvet: %d problem(s)\n", len(diags))
		return 1
	}
	return 0
}

// renderDiags is the canonical text form the -runs determinism gate
// compares: exactly what the report prints. Each file is named relative to
// cwd where that is shorter than its absolute path.
func renderDiags(diags []lint.Diagnostic, cwd string) string {
	var b strings.Builder
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
			d.Pos.Filename = rel
		}
		fmt.Fprintf(&b, "%s\n", d)
	}
	return b.String()
}
