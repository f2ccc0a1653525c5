package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"strings"
	"testing"

	"canalmesh/internal/proxy"
)

// Every table and figure the repo regenerates must be bit-for-bit
// reproducible under its baked-in seeds: the canalvet simdeterminism
// analyzer keeps wall clocks and global randomness out of the sim packages,
// and these tests are the end-to-end check — run an experiment twice in one
// process and require byte-identical serialized output. Map-iteration or
// float-summation order leaking into results shows up here as a diff even
// when each individual value looks plausible.

func TestFlashCrowdDeterministic(t *testing.T) {
	a := AdmissionFlashCrowd(context.Background()).String()
	b := AdmissionFlashCrowd(context.Background()).String()
	if a != b {
		t.Fatalf("admission flash-crowd output differs between identically-seeded runs:\nrun 1:\n%s\nrun 2:\n%s", a, b)
	}
}

// TestTraceExperimentDeterministic runs the per-hop breakdown of every
// architecture twice and pins its JSON report byte for byte against the
// checked-in BENCH_trace.json, which it regenerates under
// CANAL_UPDATE_BENCH=1.
func TestTraceExperimentDeterministic(t *testing.T) {
	run := func() (string, []byte) {
		rep, err := TraceExperiment(proxy.Architectures(), 200, 42)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String(), js
	}
	s1, j1 := run()
	s2, j2 := run()
	if s1 != s2 {
		t.Fatalf("trace breakdown tables differ between identically-seeded runs:\nrun 1:\n%s\nrun 2:\n%s", s1, s2)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace JSON reports differ between identically-seeded runs: span IDs or timestamps are not seed-deterministic")
	}
	if !bytes.Contains(j1, []byte(`"hops"`)) || !strings.Contains(s1, "TOTAL") {
		t.Error("report looks empty")
	}
	pinReport(t, "BENCH_trace.json", j1)
}

func TestNoisyNeighborDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fig16 takes a few seconds; skipped with -short")
	}
	a := Fig16NoisyNeighbor().String()
	b := Fig16NoisyNeighbor().String()
	if a != b {
		t.Fatalf("fig16 noisy-neighbor output differs between identically-seeded runs (len %d vs %d)", len(a), len(b))
	}
}

// TestArmsMatchAtAnyWorkerCount renders the experiments whose independent
// arms run in parallel on ForEachPoint with one worker and with two, and
// requires identical bytes: assembly is by index, never by finishing order.
func TestArmsMatchAtAnyWorkerCount(t *testing.T) {
	var exps []Experiment
	for _, e := range All() {
		if slices.Contains([]string{"admission", "fig5", "fig2"}, e.ID) {
			exps = append(exps, e)
		}
	}
	if len(exps) != 3 {
		t.Fatalf("found %d of the 3 experiments", len(exps))
	}
	render := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]string, len(exps))
		for i, e := range exps {
			out[i] = e.Run(context.Background()).String()
		}
		return out
	}
	one, two := render(1), render(2)
	for i, e := range exps {
		if one[i] != two[i] {
			t.Errorf("%s renders differently with one worker and with two:\n1:\n%s\n2:\n%s", e.ID, one[i], two[i])
		}
	}
}

// suiteRenderedSHA is the SHA-256 of every experiment's rendered output,
// concatenated in paper order: the byte contract the benchmark's sim-suite
// workload checks each pass against. Changes to simulated code must leave it
// unchanged; a deliberate change to a table moves it in the same commit.
const suiteRenderedSHA = "35dc7719a2e33e5f1a8e36f26b5c68a9112f8580faa613fe1caaaf0b0eedf743"

// TestSuiteRenderedSHA runs the whole suite through the parallel runner and
// compares the digest of its rendered output with suiteRenderedSHA — which
// also pins that the output does not depend on how experiments interleave.
func TestSuiteRenderedSHA(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped with -short")
	}
	if raceEnabled {
		t.Skip("the full suite under the race detector takes minutes; verify.sh runs this without -race")
	}
	rep := NewRunner(Options{}).Run(context.Background(), All())
	h := sha256.New()
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("experiment %s: %v", r.ID, r.Err)
		}
		h.Write([]byte(r.Rendered))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != suiteRenderedSHA {
		t.Errorf("suite rendered sha256 %s, want %s", got, suiteRenderedSHA)
	}
}
