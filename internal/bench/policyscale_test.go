package bench

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"canalmesh/internal/policy"
)

// policyBaselineFile is the checked-in policy-scale report; it regenerates
// through TestPolicyScaleDeterministic.
const policyBaselineFile = "BENCH_policy.json"

func loadPolicyBaseline(t *testing.T) *PolicyScaleReport {
	t.Helper()
	data := readReport(t, policyBaselineFile)
	var rep PolicyScaleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("corrupt %s: %v", policyBaselineFile, err)
	}
	return &rep
}

// TestPolicyScaleDeterministic recomputes the sweep's deterministic fields
// at the lower scales and the full churn section, and requires exact
// equality with the checked-in BENCH_policy.json: compiling the same corpus
// on any machine must produce byte-identical dispatch tables (fingerprints,
// bucket shapes, candidate distributions) and an identical virtual-time
// convergence outcome.
//
// Under CANAL_UPDATE_BENCH=1 it instead runs the full timed sweep, 10^3 to
// 10^6 rules, and rewrites BENCH_policy.json, wall-clock columns included.
func TestPolicyScaleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles up to 10^4 rules")
	}
	if updateReports() {
		regeneratePolicyBaseline(t)
		return
	}
	base := loadPolicyBaseline(t)
	spec := DefaultPolicyScaleSpec()
	spec.Timing = false

	byRules := map[int]PolicyScaleRow{}
	for _, row := range base.Rows {
		byRules[row.Rules] = row
	}
	for _, n := range []int{1_000, 10_000} {
		got, err := runPolicyScalePoint(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := byRules[n]
		if !ok {
			t.Fatalf("%s has no row for scale %d", policyBaselineFile, n)
		}
		// Zero the timing diagnostics: only deterministic fields compare.
		want.LookupNS, want.BaselineNS, want.FullCompileMS, want.IncrementalMS = 0, 0, 0, 0
		if got != want {
			t.Errorf("scale %d deterministic fields drifted from %s:\n got %+v\nwant %+v",
				n, policyBaselineFile, got, want)
		}
	}

	// The churn section is pure virtual time: every field must reproduce.
	for j, fullPush := range []bool{false, true} {
		got, err := runPolicyChurn(spec, fullPush)
		if err != nil {
			t.Fatal(err)
		}
		if j >= len(base.Churn) {
			t.Fatalf("%s has %d churn rows, want 2", policyBaselineFile, len(base.Churn))
		}
		if got != base.Churn[j] {
			t.Errorf("churn %s drifted from %s:\n got %+v\nwant %+v",
				got.Mode, policyBaselineFile, got, base.Churn[j])
		}
	}
}

// regeneratePolicyBaseline runs the full timed sweep and rewrites
// BENCH_policy.json. TestPolicyScaleFlat reads its wall-clock columns, so
// the sweep refuses to run under the race detector's instrumentation.
func regeneratePolicyBaseline(t *testing.T) {
	if raceEnabled {
		t.Fatalf("regenerate %s without -race: instrumentation distorts its timings", policyBaselineFile)
	}
	spec := DefaultPolicyScaleSpec()
	tab, rep := PolicyScaleResult(context.Background(), spec)
	if len(rep.Rows) != len(spec.Scales) || len(rep.Churn) != 2 {
		t.Fatalf("sweep incomplete, %s not written:\n%s", policyBaselineFile, tab)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	writeReport(t, policyBaselineFile, js)
}

// TestPolicyScaleFlat pins the headline scaling claims on the checked-in
// full-sweep report: the compiled lookup stays within 3x from 10^3 to 10^6
// rules while the linear baseline grows with N, and incremental
// recompilation beats a full rebuild by at least 20x at the top scale.
func TestPolicyScaleFlat(t *testing.T) {
	rep := loadPolicyBaseline(t)
	if len(rep.Rows) < 4 {
		t.Fatalf("%s has %d rows, want the full 10^3..10^6 sweep", policyBaselineFile, len(rep.Rows))
	}
	top := rep.Rows[len(rep.Rows)-1]
	if top.Rules < 1_000_000 {
		t.Fatalf("top scale is %d rules, want 10^6", top.Rules)
	}
	if rep.FlatnessRatio <= 0 || rep.FlatnessRatio > 3 {
		t.Errorf("lookup flatness ratio %.2f over the sweep, want (0, 3]", rep.FlatnessRatio)
	}
	if rep.BaselineGrowth < 50 {
		t.Errorf("linear baseline grew only %.1fx to %d rules; the oracle should scale ~O(N)",
			rep.BaselineGrowth, rep.BaselineCap)
	}
	if rep.IncrementalSpeedup < 20 {
		t.Errorf("incremental recompile only %.1fx cheaper than full at %d rules, want >= 20x",
			rep.IncrementalSpeedup, top.Rules)
	}
	// The candidate distribution is the deterministic mechanism behind the
	// timing: probe paths must not grow with the table.
	first := rep.Rows[0]
	if top.CandidateMax > 4*max(first.CandidateMax, 1) {
		t.Errorf("candidate max grew %d -> %d across the sweep; probe paths must stay bounded",
			first.CandidateMax, top.CandidateMax)
	}
	if len(rep.Churn) != 2 {
		t.Fatalf("churn section has %d rows, want delta and full", len(rep.Churn))
	}
	for _, row := range rep.Churn {
		if row.Unconverged != 0 {
			t.Errorf("churn %s left %d versions unconverged", row.Mode, row.Unconverged)
		}
	}
	if rep.DeltaSavings < 5 {
		t.Errorf("bucket deltas cut policy-push bytes only %.1fx vs full, want >= 5x", rep.DeltaSavings)
	}
}

// TestPolicyIncrementalRecompile checks incremental-vs-full cost
// in-process at 10^5 rules with a wide margin (the checked-in report pins
// the 10^6 number): one 64-change batch must rebuild only its touched
// buckets and come out at least 20x cheaper than recompiling the table.
func TestPolicyIncrementalRecompile(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	if testing.Short() {
		t.Skip("compiles 10^5 rules")
	}
	spec := DefaultPolicyScaleSpec()
	row, err := runPolicyScalePoint(spec, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if row.TouchedBuckets > 2*spec.IncrementalBatch {
		t.Errorf("batch of %d touched %d buckets, want <= %d",
			spec.IncrementalBatch, row.TouchedBuckets, 2*spec.IncrementalBatch)
	}
	if row.IncrementalMS <= 0 || row.FullCompileMS/row.IncrementalMS < 20 {
		t.Errorf("incremental %0.2fms vs full %0.2fms: %.1fx, want >= 20x",
			row.IncrementalMS, row.FullCompileMS, row.FullCompileMS/row.IncrementalMS)
	}
}

// TestPolicyScaleTableDeterministic runs the registered experiment twice
// and requires byte-identical rendered output — the serial-vs-parallel
// contract every registered experiment must hold.
func TestPolicyScaleTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced sweep twice")
	}
	a := PolicyScale(context.Background()).String()
	b := PolicyScale(context.Background()).String()
	if a != b {
		t.Fatalf("policy experiment output is not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == "" || len(a) < 100 {
		t.Fatalf("suspiciously small rendered table:\n%s", a)
	}
}

// TestPolicyChurnDebounceCoalesces sanity-checks the churn section's
// schedule against the distributor contract: 200 mutations at 250ms gaps
// under a 500ms debounce (max coalesce 2.5s) must produce far fewer builds
// than mutations.
func TestPolicyChurnDebounceCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 50s virtual churn window")
	}
	spec := DefaultPolicyScaleSpec()
	spec.Timing = false
	row, err := runPolicyChurn(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Builds >= spec.ChurnMutations/2 {
		t.Errorf("%d builds for %d mutations; debounce coalescing is not working", row.Builds, spec.ChurnMutations)
	}
	if row.ConvergeP99MS <= 0 || row.ConvergeP99MS > float64(5*spec.Debounce/time.Millisecond)+2000 {
		t.Errorf("converge p99 %.0fms out of range", row.ConvergeP99MS)
	}
}

// TestPolicyScaleCorpusStable pins the corpus generator itself: same seed,
// same intentions. A silent generator change would invalidate every
// checked-in fingerprint while looking like an engine bug.
func TestPolicyScaleCorpusStable(t *testing.T) {
	spec := DefaultPolicyScaleSpec()
	a := policyScaleCorpus(rand.New(rand.NewSource(spec.Seed^1000)), 1000)
	b := policyScaleCorpus(rand.New(rand.NewSource(spec.Seed^1000)), 1000)
	if len(a) != len(b) {
		t.Fatalf("corpus lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Name != b[i].Name || a[i].SrcTenant != b[i].SrcTenant {
			t.Fatalf("corpus diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := policy.NewCompiler()
	if _, err := c.Apply(nil, a); err != nil {
		t.Fatal(err)
	}
}
