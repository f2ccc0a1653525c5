package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
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
// same intentions, and for n = 1000 the corpus, query sample and mutation
// batch a scale point draws equal, field for field, what the generator
// formatting every name with fmt.Sprintf drew (sprintfPolicyScale). A silent
// generator change would invalidate every checked-in fingerprint while
// looking like an engine bug.
func TestPolicyScaleCorpusStable(t *testing.T) {
	spec := DefaultPolicyScaleSpec()
	const n = 1000
	names := newPolicyNames(n)
	rng := rand.New(rand.NewSource(spec.Seed ^ n))
	a := policyScaleCorpus(rng, names)
	queries := policyScaleQueries(rng, names, spec.Queries)
	muts := policyScaleMutations(rng, names, spec.IncrementalBatch)
	b := policyScaleCorpus(rand.New(rand.NewSource(spec.Seed^n)), newPolicyNames(n))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two corpora drawn with one seed differ")
	}
	wantCorpus, wantQueries, wantMuts := sprintfPolicyScale(rand.New(rand.NewSource(spec.Seed^n)), n, spec.Queries, spec.IncrementalBatch)
	if len(a) != len(wantCorpus) || len(queries) != len(wantQueries) || len(muts) != len(wantMuts) {
		t.Fatalf("drew %d intentions, %d queries, %d mutations; the reference %d, %d, %d",
			len(a), len(queries), len(muts), len(wantCorpus), len(wantQueries), len(wantMuts))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], wantCorpus[i]) {
			t.Fatalf("intention %d: %+v, the reference %+v", i, a[i], wantCorpus[i])
		}
	}
	for i := range queries {
		if !reflect.DeepEqual(queries[i], wantQueries[i]) {
			t.Fatalf("query %d: %+v, the reference %+v", i, queries[i], wantQueries[i])
		}
	}
	for i := range muts {
		if !reflect.DeepEqual(muts[i], wantMuts[i]) {
			t.Fatalf("mutation %d: %+v, the reference %+v", i, muts[i], wantMuts[i])
		}
	}
	c := policy.NewCompiler()
	if _, err := c.Apply(nil, a); err != nil {
		t.Fatal(err)
	}
}

// sprintfPolicyScale is the reference generator: the corpus, query sample
// and mutation batch of one scale point, in the scale point's draw order,
// with every name formatted by fmt.Sprintf.
func sprintfPolicyScale(rng *rand.Rand, n, queries, batch int) ([]policy.Intention, []policy.Query, []policy.Intention) {
	tenants, services := policyScaleShape(n)
	globals := min(32, n/10)
	var corpus []policy.Intention
	for i := 0; i < n-globals; i++ {
		in := policy.Intention{
			ID:        fmt.Sprintf("r%07d", i),
			Name:      fmt.Sprintf("rule-%d", i),
			SrcTenant: fmt.Sprintf("t%05d", rng.Intn(tenants)),
			Dst:       policy.Exact(fmt.Sprintf("svc%05d", rng.Intn(services))),
			Action:    policy.ActionAllow,
		}
		switch {
		case rng.Intn(100) < 90:
			in.Src = policy.Exact(fmt.Sprintf("svc%05d", rng.Intn(services)))
		case rng.Intn(2) == 0:
			in.Src = policy.Prefix(fmt.Sprintf("svc%d", rng.Intn(10)))
		default:
			in.Src = policy.Any()
		}
		if rng.Intn(100) < 25 {
			in.Action = policy.ActionDeny
		}
		if rng.Intn(100) < 30 {
			in.Path = policy.Prefix(fmt.Sprintf("/api/v%d", rng.Intn(4)))
		}
		in.Precedence = rng.Intn(3)
		corpus = append(corpus, in)
	}
	for i := 0; i < globals; i++ {
		corpus = append(corpus, policy.Intention{
			ID:         fmt.Sprintf("g%03d", i),
			Name:       fmt.Sprintf("mesh-%d", i),
			Src:        policy.Any(),
			Dst:        policy.Exact(fmt.Sprintf("svc%05d", rng.Intn(services))),
			Path:       policy.Prefix(fmt.Sprintf("/admin/%d", i)),
			Action:     policy.ActionDeny,
			Precedence: 5,
		})
	}
	var qs []policy.Query
	for i := 0; i < queries; i++ {
		qs = append(qs, policy.Query{
			SrcTenant:  fmt.Sprintf("t%05d", rng.Intn(tenants)),
			SrcService: fmt.Sprintf("svc%05d", rng.Intn(services)),
			DstService: fmt.Sprintf("svc%05d", rng.Intn(services)),
			Method:     "GET",
			Path:       fmt.Sprintf("/api/v%d/x", rng.Intn(5)),
		})
	}
	var muts []policy.Intention
	for i := 0; i < batch; i++ {
		muts = append(muts, policy.Intention{
			ID:        fmt.Sprintf("r%07d", rng.Intn(n-n/10)),
			Name:      fmt.Sprintf("mut-%d", i),
			SrcTenant: fmt.Sprintf("t%05d", rng.Intn(tenants)),
			Src:       policy.Exact(fmt.Sprintf("svc%05d", rng.Intn(services))),
			Dst:       policy.Exact(fmt.Sprintf("svc%05d", rng.Intn(services))),
			Action:    policy.ActionDeny,
		})
	}
	return corpus, qs, muts
}
