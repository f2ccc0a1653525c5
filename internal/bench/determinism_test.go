package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// Every table and figure the repo regenerates must be bit-for-bit
// reproducible under its baked-in seeds: the canalvet simdeterminism
// analyzer keeps wall clocks and global randomness out of the sim packages,
// and these tests are the end-to-end check — run an experiment twice in one
// process and require byte-identical serialized output. Map-iteration or
// float-summation order leaking into results shows up here as a diff even
// when each individual value looks plausible.

func TestFlashCrowdDeterministic(t *testing.T) {
	a := AdmissionFlashCrowd().String()
	b := AdmissionFlashCrowd().String()
	if a != b {
		t.Fatalf("canalsim flash-crowd output differs between identically-seeded runs:\nrun 1:\n%s\nrun 2:\n%s", a, b)
	}
}

func TestTraceExperimentDeterministic(t *testing.T) {
	run := func() (string, string) {
		rep, err := TraceExperiment([]string{"canal", "istio"}, 120, 7)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String(), string(js)
	}
	s1, j1 := run()
	s2, j2 := run()
	if s1 != s2 {
		t.Fatalf("trace breakdown tables differ between identically-seeded runs:\nrun 1:\n%s\nrun 2:\n%s", s1, s2)
	}
	if j1 != j2 {
		t.Fatal("trace JSON reports differ between identically-seeded runs: span IDs or timestamps are not seed-deterministic")
	}
	if !strings.Contains(j1, `"hops"`) || !strings.Contains(s1, "TOTAL") {
		t.Error("report looks empty")
	}
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

// suiteRenderedSHA is the SHA-256 of every experiment's rendered output,
// concatenated in paper order: the byte contract the benchmark's sim-suite
// workload checks each pass against. Changes to simulated code must leave it
// unchanged; a deliberate change to a table moves it in the same commit.
const suiteRenderedSHA = "82835bf07fb0a8df534162110b5480062b64b6121fd464280480bfd1911e120c"

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
