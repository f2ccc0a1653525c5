// Command canalvet runs the repository's invariant linters (internal/lint)
// over the module. The suite type-checks the whole module from source —
// stdlib included — once, and every analyzer reads that one engine: the
// per-package checks (map-iteration order, atomic/plain mixing, lock
// discipline, dropped errors, unit-safe duration arithmetic, context
// threading, goroutine/channel leak detection), the call-graph four
// (simdeterminism, transdeterminism, hotpath, lockorder), and the taint
// trio that proves tenant isolation on the request path (tenantflow,
// sharedmut, poolbleed).
//
// Usage:
//
//	canalvet ./...            # lint the whole module containing the cwd
//	canalvet                  # same
//	canalvet -list            # print the analyzers and exit
//	canalvet -fix ./...       # apply suggested fixes (gofmt-clean, refuses overlaps)
//	canalvet -json - ./...    # machine-readable diagnostics on stdout
//	canalvet -json out.json -stale-as-error ./...
//	canalvet -only tenantflow,sharedmut,poolbleed ./...   # run a named subset
//	canalvet -runs 2 -json out.json ./...   # repeat the analysis, prove determinism
//	canalvet -callgraph '(*Engine).Route'   # dump one function's call-graph node
//	canalvet -taint 'startTrace'            # dump one function's taint summary
//
// Intentional violations are suppressed inline with a justified directive:
//
//	//canal:allow <analyzer> <reason...>
//
// and audited isolation points are declared with
//
//	//canal:boundary <reason...>
//
// canalvet exits 1 when any real diagnostic survives — including malformed
// directives — so it can gate verify.sh and CI. Stale directives (ones
// that suppress nothing) are always reported with their rotting reason
// text, but only count toward the exit code under -stale-as-error.
//
// -runs N repeats the analysis N times over the one parsed, type-checked
// module. The call graph, the taint engine and every finding are rebuilt
// each run, so the comparison is non-vacuous: each run's diagnostics are
// compared against the first and any divergence exits 2. -json writes the
// first run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"canalmesh/internal/lint"
)

// jsonDiag is the stable machine-readable diagnostic shape for -json.
type jsonDiag struct {
	File     string             `json:"file"`
	Line     int                `json:"line"`
	Column   int                `json:"column"`
	Analyzer string             `json:"analyzer"`
	Message  string             `json:"message"`
	Stale    bool               `json:"stale,omitempty"`
	Fix      *lint.SuggestedFix `json:"suggestedFix,omitempty"`
}

// jsonReport is the -json document.
type jsonReport struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	root := flag.String("root", ".", "directory inside the module to lint")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	jsonOut := flag.String("json", "", "write diagnostics as JSON to this file (\"-\" for stdout)")
	staleAsError := flag.Bool("stale-as-error", false, "count stale //canal:allow directives toward the exit code")
	only := flag.String("only", "", "comma-separated analyzer names to run instead of the full suite")
	runs := flag.Int("runs", 1, "repeat the analysis N times and require identical diagnostics")
	callgraph := flag.String("callgraph", "", "dump the call-graph node for a function (exact key or unique suffix) and exit")
	taint := flag.String("taint", "", "dump the taint summary for a function (exact key or unique suffix) and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	// Package patterns beyond "./..." are not needed for a single-module
	// repo; accept and ignore the conventional argument.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "canalvet: only ./... is supported, got %q\n", arg)
			os.Exit(2)
		}
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "canalvet: -runs must be at least 1")
		os.Exit(2)
	}
	if *runs > 1 && *fix {
		fmt.Fprintln(os.Stderr, "canalvet: -runs and -fix are mutually exclusive (the reruns analyze the sources as loaded)")
		os.Exit(2)
	}
	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canalvet:", err)
		os.Exit(2)
	}

	modRoot, err := lint.FindModuleRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canalvet:", err)
		os.Exit(2)
	}
	pkgs, _, err := lint.LoadModule(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canalvet:", err)
		os.Exit(2)
	}
	lint.TypeCheck(pkgs)
	if *callgraph != "" {
		os.Exit(dumpCallGraph(pkgs, *callgraph))
	}
	if *taint != "" {
		os.Exit(dumpTaint(pkgs, *taint))
	}

	diags := lint.Run(pkgs, suite)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, diags); err != nil {
			fmt.Fprintln(os.Stderr, "canalvet:", err)
			os.Exit(2)
		}
	}
	first := renderDiags(diags)
	for run := 2; run <= *runs; run++ {
		if render := renderDiags(lint.Run(pkgs, suite)); render != first {
			fmt.Fprintf(os.Stderr, "canalvet: nondeterministic diagnostics: run %d differs from run 1\n--- run 1\n%s--- run %d\n%s", run, first, run, render)
			os.Exit(2)
		}
	}

	if *fix {
		res, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "canalvet:", err)
			os.Exit(2)
		}
		files := make([]string, 0, len(res.Fixed))
		for file := range res.Fixed {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			fmt.Printf("canalvet: fixed %d problem(s) in %s\n", res.Fixed[file], file)
		}
		for _, msg := range res.Refused {
			fmt.Fprintln(os.Stderr, "canalvet:", msg)
		}
		// Diagnostics whose fix was applied are resolved; report the rest so
		// a -fix run still surfaces what needs a human.
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if d.Fix != nil && len(d.Fix.Edits) > 0 && res.Fixed[d.Fix.Edits[0].File] > 0 {
				continue
			}
			remaining = append(remaining, d)
		}
		diags = remaining
		if len(res.Refused) > 0 {
			os.Exit(1)
		}
	}

	errors := 0
	for _, d := range diags {
		fmt.Println(d)
		if !d.Stale || *staleAsError {
			errors++
		}
	}
	if errors > 0 {
		fmt.Fprintf(os.Stderr, "canalvet: %d problem(s)\n", errors)
		os.Exit(1)
	}
}

// selectAnalyzers resolves -only against the registered suite, preserving
// suite order. An empty spec selects everything; an unknown name is an
// error listing what exists.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if spec == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown, known []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		for _, a := range all {
			known = append(known, a.Name)
		}
		return nil, fmt.Errorf("-only names unknown analyzer(s) %s (have: %s)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}

// renderDiags is the canonical text form the -runs determinism gate
// compares: exactly what the terminal report prints.
func renderDiags(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s\n", d)
	}
	return b.String()
}

// dumpCallGraph type-checks the module, builds the interprocedural call
// graph, and prints one node: its edges, behavior facts, lock sites, and
// the full set of functions reachable from it. The output order is
// deterministic (the graph guarantees sorted traversal), so dumps diff
// cleanly between revisions.
func dumpCallGraph(pkgs []*lint.Package, name string) int {
	g := lint.BuildCallGraph(pkgs)
	n := g.Lookup(name)
	if n == nil {
		fmt.Fprintf(os.Stderr, "canalvet: no unique call-graph node matches %q (try the full key, e.g. canalmesh/internal/l7.(*Engine).Route)\n", name)
		return 2
	}
	fmt.Printf("%s\n", n.Key)
	fmt.Printf("  at   %s\n", n.Position)
	if n.Hot {
		fmt.Printf("  hot  //canal:hotpath\n")
	}
	if n.Test {
		fmt.Printf("  test declared in a _test.go file\n")
	}
	for _, f := range n.Facts {
		fmt.Printf("  fact %-10s %s (%s:%d)\n", f.Kind, f.What, f.Position.Filename, f.Position.Line)
	}
	for _, ls := range n.Locks {
		mode := "lock"
		if ls.Read {
			mode = "rlock"
		}
		fmt.Printf("  %-4s %s class=%s held to offset %d\n", mode, ls.Expr, ls.Class, ls.EndOff)
	}
	for _, e := range n.Calls {
		kind := "call"
		switch {
		case e.Iface && e.Ref:
			kind = "iref"
		case e.Iface:
			kind = "icall"
		case e.Ref:
			kind = "ref"
		}
		fmt.Printf("  %-5s %s (%s:%d)\n", kind, e.Callee, e.Position.Filename, e.Position.Line)
	}
	reach := g.Reachable(n.Key)
	fmt.Printf("  reachable: %d function(s)\n", len(reach))
	for _, k := range reach {
		fmt.Printf("    %s\n", k)
	}
	return 0
}

// dumpTaint builds the dataflow engine and prints one function's taint
// summary: boundary status, sources seen in its body, which parameter
// slots flow to its results, the sinks it (transitively) feeds, and the
// package-level state it writes. This is the -taint debugging view for
// asking "why did tenantflow fire here?".
func dumpTaint(pkgs []*lint.Package, name string) int {
	g := lint.BuildCallGraph(pkgs)
	e := lint.BuildTaint(pkgs, g)
	if !e.DumpSummary(os.Stdout, name) {
		fmt.Fprintf(os.Stderr, "canalvet: no unique taint summary matches %q (try the full key, e.g. canalmesh.(*GatewayServer).startTrace)\n", name)
		return 2
	}
	return 0
}

// writeJSON renders the report in the stable -json shape. An empty
// diagnostic list renders as [], not null, so consumers can always
// iterate.
func writeJSON(path string, diags []lint.Diagnostic) error {
	rep := jsonReport{Diagnostics: make([]jsonDiag, 0, len(diags))}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Stale:    d.Stale,
			Fix:      d.Fix,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
