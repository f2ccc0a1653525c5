package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"canalmesh/internal/configpush"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/policy"
	"canalmesh/internal/sim"
)

// This file is the policy-scale experiment behind BENCH_policy.json: the
// compiled intention dispatch table swept from 10^3 to 10^6 rules. It
// separates two result classes strictly:
//
//   - deterministic columns (table shape, candidate-bucket sizes, touched
//     buckets per incremental change, compiled-table fingerprints, and the
//     virtual-time policy-push convergence section) — these render in the
//     registered experiment table and are asserted byte-stable by tests;
//   - wall-clock timings (lookup ns/op, full vs incremental recompile time)
//     — diagnostic, reported only through the JSON/CLI path, never in the
//     deterministic table output.

// PolicyScaleSpec parameterizes the sweep.
type PolicyScaleSpec struct {
	// Scales are the installed-rule counts to sweep (ascending).
	Scales []int
	// Queries is the seeded lookup sample size per scale.
	Queries int
	// IncrementalBatch is how many intention changes one incremental Apply
	// measurement carries.
	IncrementalBatch int
	// BaselineCap bounds the linear-scan oracle measurement: above this rule
	// count the O(N) baseline is extrapolated, not run.
	BaselineCap int
	// Timing enables the wall-clock measurements. The registered experiment
	// runs with Timing off so its output stays byte-deterministic;
	// BENCH_policy.json is regenerated with it on, by
	// `CANAL_UPDATE_BENCH=1 go test -run '^TestPolicyScaleDeterministic$' ./internal/bench`.
	Timing bool
	// ChurnMutations and Debounce shape the policy-push convergence section
	// (simulated, virtual-time, deterministic).
	ChurnMutations int
	Debounce       time.Duration
	Seed           int64
}

// DefaultPolicyScaleSpec is the full sweep: 10^3 → 10^6 rules with timing.
func DefaultPolicyScaleSpec() PolicyScaleSpec {
	return PolicyScaleSpec{
		Scales:           []int{1_000, 10_000, 100_000, 1_000_000},
		Queries:          4096,
		IncrementalBatch: 64,
		BaselineCap:      100_000,
		Timing:           true,
		ChurnMutations:   200,
		Debounce:         500 * time.Millisecond,
		Seed:             42,
	}
}

// ReducedPolicyScaleSpec is the registered-experiment shape: scales capped
// at 10^5 and no wall-clock timing, so the rendered table is cheap and
// byte-deterministic.
func ReducedPolicyScaleSpec() PolicyScaleSpec {
	s := DefaultPolicyScaleSpec()
	s.Scales = []int{1_000, 10_000, 100_000}
	s.Timing = false
	return s
}

// PolicyScaleRow is one scale point.
type PolicyScaleRow struct {
	Rules    int `json:"rules"`
	Tenants  int `json:"tenants"`
	Services int `json:"services"`

	// Deterministic table shape.
	Buckets     int    `json:"buckets"`
	MaxBucket   int    `json:"max_bucket"`
	GlobalRules int    `json:"global_rules"`
	Fingerprint string `json:"fingerprint"`

	// Deterministic lookup-cost proxy: rules on the probe path of the
	// seeded query sample. Near-flat candidates are what make near-flat
	// nanoseconds possible.
	CandidateP50 int `json:"candidate_p50"`
	CandidateMax int `json:"candidate_max"`

	// Deterministic incremental-recompilation cost: dispatch buckets rebuilt
	// by one IncrementalBatch-sized Apply.
	TouchedBuckets int `json:"touched_buckets"`

	// Wall-clock diagnostics (Timing only; zero otherwise).
	LookupNS      float64 `json:"lookup_ns,omitempty"`
	BaselineNS    float64 `json:"baseline_ns,omitempty"`
	FullCompileMS float64 `json:"full_compile_ms,omitempty"`
	IncrementalMS float64 `json:"incremental_ms,omitempty"`
}

// PolicyChurnRow is one (mode) outcome of the policy-push convergence
// section: intention churn streamed through the configpush distributor.
// All values are virtual-time or byte counters — deterministic.
type PolicyChurnRow struct {
	Mode          string  `json:"mode"` // "delta" or "full"
	Builds        int     `json:"builds"`
	Sends         int     `json:"sends"`
	TotalBytes    int64   `json:"total_bytes"`
	ConvergeP50MS float64 `json:"converge_p50_ms"`
	ConvergeP99MS float64 `json:"converge_p99_ms"`
	Unconverged   int     `json:"unconverged"`
}

// PolicyScaleReport is the machine-readable result behind BENCH_policy.json.
type PolicyScaleReport struct {
	Seed             int64  `json:"seed"`
	Queries          int    `json:"queries"`
	IncrementalBatch int    `json:"incremental_batch"`
	BaselineCap      int    `json:"baseline_cap"`
	GOARCH           string `json:"-"`

	Rows []PolicyScaleRow `json:"rows"`

	// CandidateGrowth is CandidateP50 at the top scale over the bottom scale
	// — the deterministic flatness headline.
	CandidateGrowth float64 `json:"candidate_growth"`
	// FlatnessRatio is lookup ns/op at the top scale over the bottom scale
	// (Timing only).
	FlatnessRatio float64 `json:"flatness_ratio,omitempty"`
	// BaselineGrowth is the linear oracle's ns/op at BaselineCap over the
	// bottom scale (Timing only) — the ~O(N) curve the table beats.
	BaselineGrowth float64 `json:"baseline_growth,omitempty"`
	// IncrementalSpeedup is full recompile time over one incremental batch
	// at the top scale (Timing only).
	IncrementalSpeedup float64 `json:"incremental_speedup,omitempty"`

	Churn []PolicyChurnRow `json:"churn"`
	// DeltaSavings is full-push bytes over delta bytes for the churn run.
	DeltaSavings float64 `json:"delta_savings"`
}

// JSON renders the report deterministically (timing fields excepted).
func (r *PolicyScaleReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// policyScaleShape derives the tenant/service population for a rule count:
// rule sets grow because meshes gain tenants and services, so diversity
// scales with N and per-bucket density stays bounded — the regime the
// dispatch table is built for.
func policyScaleShape(rules int) (tenants, services int) {
	tenants = rules / 500
	if tenants < 8 {
		tenants = 8
	}
	services = rules / 250
	if services < 24 {
		services = 24
	}
	return tenants, services
}

// policyNames are the strings one scale's corpus, queries and mutations
// are drawn from, each table sliced from one string (numbered): a name costs
// no allocation of its own, and a scale point builds its tables once.
type policyNames struct {
	n                 int
	tenants, services []string // "t%05d", "svc%05d"
	ids, rules        []string // "r%07d", "rule-%d" of the per-tenant rules
}

// newPolicyNames builds the name tables of the scale with n rules.
func newPolicyNames(n int) policyNames {
	tenants, services := policyScaleShape(n)
	perTenant := n - policyScaleGlobals(n)
	return policyNames{
		n:        n,
		tenants:  numbered("t", 5, tenants),
		services: numbered("svc", 5, services),
		ids:      numbered("r", 7, perTenant),
		rules:    numbered("rule-", 0, perTenant),
	}
}

// policyScaleGlobals is how many mesh-wide rules a corpus of n holds.
func policyScaleGlobals(n int) int { return min(32, n/10) }

// policyScaleCorpus generates the deterministic intention set for one scale:
// mostly exact-key tenant rules, a slice of per-tenant wildcard/prefix
// sources, and a small capped set of mesh-wide (wildcard tenant) rules.
// Every name is drawn from a table, not formatted per rule.
func policyScaleCorpus(rng *rand.Rand, names policyNames) []policy.Intention {
	tenants, services := len(names.tenants), len(names.services)
	globals := policyScaleGlobals(names.n)
	srcPrefixes, pathPrefixes := numbered("svc", 0, 10), numbered("/api/v", 0, 4)
	out := make([]policy.Intention, 0, names.n)
	for i := range names.ids {
		in := policy.Intention{
			ID:        names.ids[i],
			Name:      names.rules[i],
			SrcTenant: names.tenants[rng.Intn(tenants)],
			Dst:       policy.Exact(names.services[rng.Intn(services)]),
			Action:    policy.ActionAllow,
		}
		switch {
		case rng.Intn(100) < 90:
			in.Src = policy.Exact(names.services[rng.Intn(services)])
		case rng.Intn(2) == 0:
			in.Src = policy.Prefix(srcPrefixes[rng.Intn(10)])
		default:
			in.Src = policy.Any()
		}
		if rng.Intn(100) < 25 {
			in.Action = policy.ActionDeny
		}
		if rng.Intn(100) < 30 {
			in.Path = policy.Prefix(pathPrefixes[rng.Intn(4)])
		}
		in.Precedence = rng.Intn(3)
		out = append(out, in)
	}
	ids, meshNames, paths := numbered("g", 3, globals), numbered("mesh-", 0, globals), numbered("/admin/", 0, globals)
	for i := 0; i < globals; i++ {
		out = append(out, policy.Intention{
			ID:         ids[i],
			Name:       meshNames[i],
			Src:        policy.Any(),
			Dst:        policy.Exact(names.services[rng.Intn(services)]),
			Path:       policy.Prefix(paths[i]),
			Action:     policy.ActionDeny,
			Precedence: 5,
		})
	}
	return out
}

// numbered returns the n names prefix followed by i, zero-padded to width
// digits, for i in 0..n-1 — numbered("t", 5, n) renders "t%05d" — as
// slices of one string, so a table costs two allocations however long it is.
func numbered(prefix string, width, n int) []string {
	var digits [20]byte
	decimal := func(i int) []byte { return strconv.AppendInt(digits[:0], int64(i), 10) }
	var b strings.Builder
	b.Grow(n * (len(prefix) + max(width, len(decimal(n)))))
	for i := 0; i < n; i++ {
		d := decimal(i)
		b.WriteString(prefix)
		for range width - len(d) {
			b.WriteByte('0')
		}
		b.Write(d)
	}
	all := b.String()
	out := make([]string, n)
	for i := range out {
		k := len(prefix) + max(width, len(decimal(i)))
		out[i], all = all[:k], all[k:]
	}
	return out
}

// policyScaleQueries draws the seeded lookup sample for one scale.
func policyScaleQueries(rng *rand.Rand, names policyNames, count int) []policy.Query {
	tenants, services := len(names.tenants), len(names.services)
	paths := [...]string{"/api/v0/x", "/api/v1/x", "/api/v2/x", "/api/v3/x", "/api/v4/x"}
	out := make([]policy.Query, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, policy.Query{
			SrcTenant:  names.tenants[rng.Intn(tenants)],
			SrcService: names.services[rng.Intn(services)],
			DstService: names.services[rng.Intn(services)],
			Method:     "GET",
			Path:       paths[rng.Intn(len(paths))],
		})
	}
	return out
}

// policyScaleMutations derives the incremental change batch: existing IDs
// re-upserted with flipped content (same key space, so buckets move but the
// set size is stable).
func policyScaleMutations(rng *rand.Rand, names policyNames, batch int) []policy.Intention {
	tenants, services := len(names.tenants), len(names.services)
	mutNames := numbered("mut-", 0, batch)
	out := make([]policy.Intention, 0, batch)
	for i := 0; i < batch; i++ {
		out = append(out, policy.Intention{
			ID:        names.ids[rng.Intn(names.n-names.n/10)],
			Name:      mutNames[i],
			SrcTenant: names.tenants[rng.Intn(tenants)],
			Src:       policy.Exact(names.services[rng.Intn(services)]),
			Dst:       policy.Exact(names.services[rng.Intn(services)]),
			Action:    policy.ActionDeny,
		})
	}
	return out
}

// runPolicyScalePoint measures one scale.
func runPolicyScalePoint(spec PolicyScaleSpec, n int) (PolicyScaleRow, error) {
	rng := rand.New(rand.NewSource(spec.Seed ^ int64(n)))
	names := newPolicyNames(n)
	corpus := policyScaleCorpus(rng, names)
	queries := policyScaleQueries(rng, names, spec.Queries)

	c := policy.NewCompiler()
	if _, err := c.Apply(nil, corpus); err != nil {
		return PolicyScaleRow{}, err
	}
	st := c.Stats()
	tenants, services := policyScaleShape(n)
	row := PolicyScaleRow{
		Rules:       st.Intentions,
		Tenants:     tenants,
		Services:    services,
		Buckets:     st.Buckets,
		MaxBucket:   st.MaxBucket,
		GlobalRules: st.GlobalRules,
		Fingerprint: fmt.Sprintf("%016x", c.Fingerprint()),
	}

	// Candidate-bucket distribution over the query sample (deterministic).
	cands := make([]int, 0, len(queries))
	for _, q := range queries {
		cands = append(cands, c.CandidateRules(q))
	}
	sort.Ints(cands)
	row.CandidateP50 = cands[len(cands)/2]
	row.CandidateMax = cands[len(cands)-1]

	// One incremental batch: touched buckets are deterministic; its wall
	// time is a diagnostic.
	muts := policyScaleMutations(rng, names, spec.IncrementalBatch)
	var incremental time.Duration
	start := time.Now() //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
	ist, err := c.Apply(nil, muts)
	if err != nil {
		return PolicyScaleRow{}, err
	}
	incremental = time.Since(start) //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
	row.TouchedBuckets = ist.TouchedBuckets

	if !spec.Timing {
		return row, nil
	}
	row.IncrementalMS = float64(incremental) / float64(time.Millisecond)

	// Lookup ns/op over the query sample, repeated until the measurement
	// window is meaningful. Collect the corpus-build garbage first so the
	// measurement sees steady-state memory, not a pending GC cycle.
	runtime.GC()
	iters := 0
	start = time.Now() //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
	for {
		for _, q := range queries {
			_ = c.Eval(q)
		}
		iters += len(queries)
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond { //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
			row.LookupNS = float64(elapsed) / float64(iters)
			break
		}
	}

	// Full recompile of the same set, timed.
	start = time.Now() //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
	c.Full()
	row.FullCompileMS = float64(time.Since(start)) / float64(time.Millisecond) //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output

	// Linear oracle at bounded scales: a small sample is enough, the scan is
	// O(rules) per query.
	if n <= spec.BaselineCap {
		base, err := policy.NewBaseline(corpus)
		if err != nil {
			return PolicyScaleRow{}, err
		}
		sample := queries
		if len(sample) > 64 {
			sample = sample[:64]
		}
		start = time.Now() //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
		for _, q := range sample {
			_ = base.Eval(q)
		}
		row.BaselineNS = float64(time.Since(start)) / float64(len(sample)) //canal:allow simdeterminism diagnostic timing for the JSON report; never in deterministic table output
	}
	return row, nil
}

// runPolicyChurn streams intention churn through a configpush distributor
// (Canal model: one mesh gateway plus node proxies) and measures push
// convergence in virtual time — once with bucket deltas, once full-push.
func runPolicyChurn(spec PolicyScaleSpec, fullPush bool) (PolicyChurnRow, error) {
	s := sim.New(spec.Seed)
	c, err := buildChurnCluster(ConfigChurnSpec{Nodes: 64, Services: 24, PodsPerService: 4})
	if err != nil {
		return PolicyChurnRow{}, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	names := newPolicyNames(10_000)
	pc := policy.NewCompiler()
	if _, err := pc.Apply(nil, policyScaleCorpus(rng, names)); err != nil {
		return PolicyChurnRow{}, err
	}
	d := configpush.New(configpush.Config{
		Sim: s, Cluster: c, Sizing: controlplane.DefaultSizing(),
		Model: controlplane.CanalModel, Debounce: spec.Debounce,
		FullPush: fullPush, Policy: pc,
	})
	d.SubscribeModel()
	d.SyncAll()

	sink := &testingSink{}
	gap := 250 * time.Millisecond
	for i := 0; i < spec.ChurnMutations; i++ {
		muts := policyScaleMutations(rng, names, 4)
		s.At(time.Duration(i)*gap, func() {
			if _, err := pc.Apply(nil, muts); err != nil {
				sink.errf("apply: %v", err)
				return
			}
			d.PolicyChanged()
		})
	}
	s.Run()
	if len(sink.errs) > 0 {
		return PolicyChurnRow{}, fmt.Errorf("policy churn: %s", sink.errs[0])
	}
	st := d.Stats()
	return PolicyChurnRow{
		Mode:          st.Mode,
		Builds:        st.Builds,
		Sends:         st.Sends,
		TotalBytes:    st.TotalBytes,
		ConvergeP50MS: ms(configpush.Percentile(st.Convergence, 0.5)),
		ConvergeP99MS: ms(configpush.Percentile(st.Convergence, 0.99)),
		Unconverged:   st.Unconverged,
	}, nil
}

// PolicyScaleResult runs the sweep plus the churn section and returns both
// the deterministic table and the full report.
func PolicyScaleResult(ctx context.Context, spec PolicyScaleSpec) (*Table, *PolicyScaleReport) {
	rows := make([]PolicyScaleRow, len(spec.Scales))
	errs := make([]error, len(spec.Scales))
	churn := make([]PolicyChurnRow, 2)
	churnErrs := make([]error, 2)
	if spec.Timing {
		// Wall-clock points must not contend with each other: a concurrent
		// 10^6-rule compile on a sibling core inflates the lookup ns/op it
		// shares memory bandwidth and GC with. Run scales sequentially.
		for i, n := range spec.Scales {
			if ctx.Err() != nil {
				break
			}
			rows[i], errs[i] = runPolicyScalePoint(spec, n)
		}
		ForEachPoint(ctx, 2, func(j int) {
			churn[j], churnErrs[j] = runPolicyChurn(spec, j == 1)
		})
	} else {
		// Deterministic-only runs: fan out the scales and churn modes.
		ForEachPoint(ctx, len(spec.Scales)+2, func(i int) {
			if i < len(spec.Scales) {
				rows[i], errs[i] = runPolicyScalePoint(spec, spec.Scales[i])
				return
			}
			j := i - len(spec.Scales)
			churn[j], churnErrs[j] = runPolicyChurn(spec, j == 1)
		})
	}

	t := &Table{
		ID: "policy",
		Title: fmt.Sprintf("Compiled intention dispatch tables, %d → %d rules",
			spec.Scales[0], spec.Scales[len(spec.Scales)-1]),
		Headers: []string{"Rules", "Tenants", "Services", "Buckets", "Max bucket",
			"Cand p50", "Cand max", "Touched/64", "Fingerprint"},
	}
	rep := &PolicyScaleReport{
		Seed:             spec.Seed,
		Queries:          spec.Queries,
		IncrementalBatch: spec.IncrementalBatch,
		BaselineCap:      spec.BaselineCap,
	}
	for i, row := range rows {
		if err := errs[i]; err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("scale %d failed: %v", spec.Scales[i], err))
			continue
		}
		if ctx.Err() != nil {
			return t, rep
		}
		rep.Rows = append(rep.Rows, row)
		t.AddRow(row.Rules, row.Tenants, row.Services, row.Buckets, row.MaxBucket,
			row.CandidateP50, row.CandidateMax, row.TouchedBuckets, row.Fingerprint)
	}
	if len(rep.Rows) >= 2 {
		first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
		if first.CandidateP50 > 0 {
			rep.CandidateGrowth = float64(last.CandidateP50) / float64(first.CandidateP50)
		} else {
			rep.CandidateGrowth = 1
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"candidate rules per lookup stay near-flat %dx rules apart: p50 %d -> %d",
			last.Rules/max(first.Rules, 1), first.CandidateP50, last.CandidateP50))
		if spec.Timing {
			if first.LookupNS > 0 {
				rep.FlatnessRatio = last.LookupNS / first.LookupNS
			}
			if first.BaselineNS > 0 {
				for i := len(rep.Rows) - 1; i >= 0; i-- {
					if rep.Rows[i].BaselineNS > 0 {
						rep.BaselineGrowth = rep.Rows[i].BaselineNS / first.BaselineNS
						break
					}
				}
			}
			if last.IncrementalMS > 0 {
				rep.IncrementalSpeedup = last.FullCompileMS / last.IncrementalMS
			}
		}
	}
	for j, row := range churn {
		if err := churnErrs[j]; err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("churn %s failed: %v", rowMode(j == 1), err))
			continue
		}
		rep.Churn = append(rep.Churn, row)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"policy push (%s): %d builds, %d sends, %.2f MB, converge p50 %.0fms p99 %.0fms, %d unconverged",
			row.Mode, row.Builds, row.Sends, mb(row.TotalBytes),
			row.ConvergeP50MS, row.ConvergeP99MS, row.Unconverged))
	}
	if len(rep.Churn) == 2 && rep.Churn[0].TotalBytes > 0 {
		rep.DeltaSavings = float64(rep.Churn[1].TotalBytes) / float64(rep.Churn[0].TotalBytes)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"bucket deltas cut policy-push bytes %.1fx vs full-set pushes", rep.DeltaSavings))
	}
	return t, rep
}

// PolicyScale is the bench-experiment entry point: reduced scales, no
// wall-clock columns, byte-deterministic output.
func PolicyScale(ctx context.Context) *Table {
	t, _ := PolicyScaleResult(ctx, ReducedPolicyScaleSpec())
	return t
}
