package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func mustApply(t *testing.T, c *Compiler, deletes []string, upserts []Intention) ApplyStats {
	t.Helper()
	st, err := c.Apply(deletes, upserts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDefaultAllowWithoutIntentions(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	v := c.Eval(Query{SrcTenant: "a", SrcService: "s", DstService: "d"})
	if !v.Allowed || v.Rule != "" || v.Reason != "" {
		t.Fatalf("unpoliced destination must default-allow: %+v", v)
	}
}

func TestZeroTrustDefaultDeny(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{{
		ID: "i1", Name: "allow-web", SrcTenant: "a", Src: Exact("web"), Dst: Exact("api"),
		Action: ActionAllow,
	}})
	if v := c.Eval(Query{SrcTenant: "a", SrcService: "web", DstService: "api"}); !v.Allowed || v.Rule != "allow-web" {
		t.Fatalf("matching allow must admit: %+v", v)
	}
	if v := c.Eval(Query{SrcTenant: "a", SrcService: "batch", DstService: "api"}); v.Allowed || v.Reason != defaultDenyReason {
		t.Fatalf("policed destination must default-deny unmatched sources: %+v", v)
	}
	// A different destination stays unpoliced.
	if v := c.Eval(Query{SrcTenant: "a", SrcService: "batch", DstService: "db"}); !v.Allowed {
		t.Fatalf("other destinations stay default-allow: %+v", v)
	}
}

func TestDenyWinsAtEqualPrecedence(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{
		{ID: "a1", Name: "allow-all", SrcTenant: "t", Src: Any(), Dst: Exact("api"), Action: ActionAllow},
		{ID: "d1", Name: "deny-web", SrcTenant: "t", Src: Exact("web"), Dst: Exact("api"), Action: ActionDeny},
	})
	v := c.Eval(Query{SrcTenant: "t", SrcService: "web", DstService: "api"})
	if v.Allowed || v.Rule != "deny-web" || v.Reason != "denied by rule deny-web" {
		t.Fatalf("deny must win the equal-precedence tie: %+v", v)
	}
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "other", DstService: "api"}); !v.Allowed {
		t.Fatalf("non-denied source admitted by allow-all: %+v", v)
	}
}

func TestExplicitPrecedenceOverridesDeny(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{
		{ID: "d1", Name: "deny-all", SrcTenant: "t", Src: Any(), Dst: Exact("api"), Action: ActionDeny, Precedence: 1},
		{ID: "a1", Name: "break-glass", SrcTenant: "t", Src: Exact("oncall"), Dst: Exact("api"), Action: ActionAllow, Precedence: 9},
	})
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "oncall", DstService: "api"}); !v.Allowed || v.Rule != "break-glass" {
		t.Fatalf("higher-precedence allow must override deny: %+v", v)
	}
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "web", DstService: "api"}); v.Allowed {
		t.Fatalf("everything else still denied: %+v", v)
	}
}

func TestWildcardFallbackBuckets(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{
		{ID: "g1", Name: "mesh-deny-admin", Src: Any(), Dst: Any(), Path: Prefix("/admin"), Action: ActionDeny, Precedence: 5},
		{ID: "p1", Name: "tenant-allow", SrcTenant: "t", Src: Prefix("job-"), Dst: Exact("api"), Action: ActionAllow},
	})
	// Wildcard-tenant wildcard-dst intention reaches every query.
	if v := c.Eval(Query{SrcTenant: "x", SrcService: "any", DstService: "anywhere", Path: "/admin/keys"}); v.Allowed || v.Rule != "mesh-deny-admin" {
		t.Fatalf("global wildcard deny must apply: %+v", v)
	}
	// Prefix source matcher lands in the tenant's wildcard-source bucket.
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "job-7", DstService: "api", Path: "/run"}); !v.Allowed || v.Rule != "tenant-allow" {
		t.Fatalf("prefix-source intention must match from the wildcard bucket: %+v", v)
	}
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "web", DstService: "api", Path: "/run"}); v.Allowed {
		t.Fatalf("non-matching source must hit the zero-trust default: %+v", v)
	}
}

func TestHeaderPredicates(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{{
		ID: "h1", Name: "internal-only", SrcTenant: "t", Src: Any(), Dst: Exact("api"),
		Headers: []HeaderMatch{{Name: "x-internal", Match: Present()}},
		Action:  ActionAllow,
	}})
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "s", DstService: "api",
		Headers: map[string]string{"x-internal": "1"}}); !v.Allowed {
		t.Fatalf("header present must admit: %+v", v)
	}
	if v := c.Eval(Query{SrcTenant: "t", SrcService: "s", DstService: "api"}); v.Allowed {
		t.Fatalf("missing header must default-deny: %+v", v)
	}
}

func TestEmptyNameDenyReason(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{{ID: "d", SrcTenant: "t", Src: Any(), Dst: Exact("api"), Action: ActionDeny}})
	v := c.Eval(Query{SrcTenant: "t", SrcService: "s", DstService: "api"})
	if v.Allowed || v.Reason != "denied by rule " {
		t.Fatalf("empty-name deny reason must match the l7 fallback string: %+v", v)
	}
}

func TestBadRegexIsAnApplyError(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	_, err := c.Apply(nil, []Intention{{ID: "r", Src: Any(), Dst: Any(), Path: Regex("(")}})
	if err == nil {
		t.Fatal("invalid regex must fail Apply")
	}
	if c.Len() != 0 {
		t.Fatalf("failed Apply must not install anything: %d", c.Len())
	}
}

// corpus generates a deterministic mixed intention set: exact and wildcard
// tenants/services, predicates, both actions, several precedence levels.
func corpus(rng *rand.Rand, n, tenants, services int) []Intention {
	out := make([]Intention, 0, n)
	for i := 0; i < n; i++ {
		in := Intention{
			ID:         fmt.Sprintf("i%06d", i),
			Name:       fmt.Sprintf("rule-%d", i),
			Action:     ActionAllow,
			Precedence: rng.Intn(3),
		}
		if rng.Intn(100) < 30 {
			in.Action = ActionDeny
		}
		if rng.Intn(100) < 90 {
			in.SrcTenant = fmt.Sprintf("t%03d", rng.Intn(tenants))
		}
		switch rng.Intn(10) {
		case 0:
			in.Src = Any()
		case 1:
			in.Src = Prefix(fmt.Sprintf("s%d", rng.Intn(10)))
		default:
			in.Src = Exact(fmt.Sprintf("s%03d", rng.Intn(services)))
		}
		if rng.Intn(10) == 0 {
			in.Dst = Any()
		} else {
			in.Dst = Exact(fmt.Sprintf("s%03d", rng.Intn(services)))
		}
		if rng.Intn(100) < 40 {
			in.Path = Prefix(fmt.Sprintf("/api/%d", rng.Intn(8)))
		}
		if rng.Intn(100) < 20 {
			in.Method = Exact([]string{"GET", "POST", "PUT"}[rng.Intn(3)])
		}
		if rng.Intn(100) < 10 {
			in.Headers = []HeaderMatch{{Name: "x-role", Match: Exact(fmt.Sprintf("r%d", rng.Intn(4)))}}
		}
		out = append(out, in)
	}
	return out
}

// queries generates a deterministic request mix against the corpus space.
func queries(rng *rand.Rand, n, tenants, services int) []Query {
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		q := Query{
			SrcTenant:  fmt.Sprintf("t%03d", rng.Intn(tenants)),
			SrcService: fmt.Sprintf("s%03d", rng.Intn(services)),
			DstService: fmt.Sprintf("s%03d", rng.Intn(services)),
			Method:     []string{"GET", "POST", "PUT"}[rng.Intn(3)],
			Path:       fmt.Sprintf("/api/%d/x", rng.Intn(10)),
		}
		if rng.Intn(100) < 20 {
			q.Headers = map[string]string{"x-role": fmt.Sprintf("r%d", rng.Intn(5))}
		}
		out = append(out, q)
	}
	return out
}

// TestCompiledMatchesBaseline differentially tests the dispatch table
// against the linear oracle on a seeded corpus: identical verdicts,
// including rule attribution and reason strings.
func TestCompiledMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	intents := corpus(rng, 800, 12, 20)
	base, err := NewBaseline(intents)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(Config{Seed: 7})
	mustApply(t, c, nil, intents)
	for i, q := range queries(rng, 4000, 14, 22) {
		got, want := c.Eval(q), base.Eval(q)
		if got != want {
			t.Fatalf("query %d %+v: compiled %+v, baseline %+v", i, q, got, want)
		}
	}
}

// TestIncrementalMatchesFull applies a random change stream and checks
// after every batch that the incrementally-maintained table is
// fingerprint-identical to a from-scratch compile of the same set, and
// agrees with the oracle.
func TestIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	intents := corpus(rng, 400, 8, 12)
	c := NewCompiler(Config{Seed: 11})
	mustApply(t, c, nil, intents)

	live := make(map[string]Intention, len(intents))
	for _, in := range intents {
		live[in.ID] = in
	}
	qs := queries(rng, 500, 10, 14)
	for step := 0; step < 30; step++ {
		var deletes []string
		var upserts []Intention
		for j := 0; j < 1+rng.Intn(4); j++ {
			id := fmt.Sprintf("i%06d", rng.Intn(420))
			switch rng.Intn(3) {
			case 0:
				deletes = append(deletes, id)
				delete(live, id)
			default:
				in := corpus(rng, 1, 8, 12)[0]
				in.ID = id
				upserts = append(upserts, in)
				live[id] = in
			}
		}
		// An ID both deleted and upserted in one batch ends up installed.
		for _, u := range upserts {
			for i, d := range deletes {
				if d == u.ID {
					deletes = append(deletes[:i], deletes[i+1:]...)
					break
				}
			}
		}
		mustApply(t, c, deletes, upserts)

		// Fresh compiler over the surviving set, installed in a different
		// order: fingerprints must still agree because bucket content
		// hashes are order-independent... they are not (order breaks
		// ties), so install in the same logical order the incremental
		// compiler holds: by ID.
		fresh := NewCompiler(Config{Seed: 11})
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		ordered := make([]Intention, 0, len(ids))
		for _, id := range ids {
			ordered = append(ordered, live[id])
		}
		mustApply(t, fresh, nil, ordered)

		base, err := NewBaseline(orderedCopy(c, ids, live))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs[:100] {
			got, want := c.Eval(q), base.Eval(q)
			// Rule attribution can differ between the incremental and
			// ID-ordered installations only when two same-precedence
			// same-action rules both match; verdict and reason class must
			// still agree.
			if got.Allowed != want.Allowed {
				t.Fatalf("step %d query %+v: compiled %+v, oracle %+v", step, q, got, want)
			}
		}
		if c.Len() != len(live) || fresh.Len() != len(live) {
			t.Fatalf("step %d: lengths diverged: %d %d %d", step, c.Len(), fresh.Len(), len(live))
		}
		cs, fs := c.Stats(), fresh.Stats()
		if cs.Buckets != fs.Buckets || cs.Intentions != fs.Intentions {
			t.Fatalf("step %d: incremental table shape %+v != full recompile %+v", step, cs, fs)
		}
	}
	// Full() over the incrementally-built set reproduces the same shape
	// and verdicts.
	before := c.Stats()
	c.Full()
	if after := c.Stats(); after != before {
		t.Fatalf("Full() changed the table shape: %+v -> %+v", before, after)
	}
}

// orderedCopy builds the oracle's rule list in the incremental compiler's
// installation order, approximated by ID order (tie semantics checked
// loosely above).
func orderedCopy(c *Compiler, ids []string, live map[string]Intention) []Intention {
	out := make([]Intention, 0, len(ids))
	for _, id := range ids {
		out = append(out, live[id])
	}
	return out
}

// TestApplyTouchesOnlyAffectedBuckets pins the incremental recompilation
// contract: a single-intention change rebuilds at most two buckets (old and
// new placement), and every other bucket's content hash is untouched.
func TestApplyTouchesOnlyAffectedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCompiler(Config{Seed: 3})
	mustApply(t, c, nil, corpus(rng, 500, 10, 16))
	before := map[string]uint64{}
	for _, r := range c.Resources() {
		before[r.Key] = r.Hash
	}

	st := mustApply(t, c, nil, []Intention{{
		ID: "i000007", Name: "moved", SrcTenant: "t001", Src: Exact("s001"), Dst: Exact("s002"),
		Action: ActionDeny,
	}})
	if st.TouchedBuckets > 2 {
		t.Fatalf("single-intention upsert touched %d buckets, want <= 2", st.TouchedBuckets)
	}
	changed := 0
	for _, r := range c.Resources() {
		if h, ok := before[r.Key]; !ok || h != r.Hash {
			changed++
		}
	}
	if changed > 2 {
		t.Fatalf("%d bucket hashes moved after a single-intention change, want <= 2", changed)
	}
}

// TestShuffleShardIsolation pins the multi-tenant claim: one tenant
// flooding the table with wildcard rules must not widen any other tenant's
// probe path.
func TestShuffleShardIsolation(t *testing.T) {
	c := NewCompiler(Config{Seed: 5, Shards: 32, TenantShards: 4})
	mustApply(t, c, nil, []Intention{
		{ID: "b1", Name: "b-allow", SrcTenant: "tenant-b", Src: Exact("web"), Dst: Exact("api"), Action: ActionAllow},
		{ID: "b2", Name: "b-wild", SrcTenant: "tenant-b", Src: Prefix("job-"), Dst: Exact("api"), Action: ActionAllow},
	})
	victim := Query{SrcTenant: "tenant-b", SrcService: "web", DstService: "api"}
	baseline := c.CandidateRules(victim)

	// Tenant A goes pathological: 20k wildcard-source rules.
	flood := make([]Intention, 0, 20000)
	for i := 0; i < 20000; i++ {
		flood = append(flood, Intention{
			ID: fmt.Sprintf("a%05d", i), Name: "a-flood", SrcTenant: "tenant-a",
			Src: Prefix(fmt.Sprintf("p%d-", i)), Dst: Exact("api"), Action: ActionDeny,
		})
	}
	mustApply(t, c, nil, flood)

	if got := c.CandidateRules(victim); got != baseline {
		t.Fatalf("tenant-a's rules widened tenant-b's probe path: %d -> %d candidates", baseline, got)
	}
	if v := c.Eval(victim); !v.Allowed || v.Rule != "b-allow" {
		t.Fatalf("tenant-b verdict changed under tenant-a flood: %+v", v)
	}
}

// TestFingerprintDeterminism compiles the same corpus twice — once in one
// batch, once intention-by-intention — and requires identical fingerprints
// and resource listings.
func TestFingerprintDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	intents := corpus(rng, 300, 6, 10)

	one := NewCompiler(Config{Seed: 9})
	mustApply(t, one, nil, intents)
	two := NewCompiler(Config{Seed: 9})
	for _, in := range intents {
		if _, err := two.Upsert(in); err != nil {
			t.Fatal(err)
		}
	}
	if one.Fingerprint() != two.Fingerprint() {
		t.Fatal("batch vs per-intention compilation produced different fingerprints")
	}
	ra, rb := one.Resources(), two.Resources()
	if len(ra) != len(rb) {
		t.Fatalf("resource counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("resource %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// canon is the canonical form a bucket's content hash covers, built as a
// string the way the compiler once stored it per intention: the oracle
// Intention.fold must stream byte for byte.
func (in *Intention) canon() string {
	var b strings.Builder
	b.WriteString(in.ID)
	b.WriteByte(0)
	b.WriteString(in.Name)
	b.WriteByte(0)
	b.WriteString(in.tenantKey())
	b.WriteByte(0)
	b.WriteString(in.Src.canon())
	b.WriteByte(0)
	b.WriteString(in.Dst.canon())
	b.WriteByte(0)
	b.WriteString(in.Method.canon())
	b.WriteByte(0)
	b.WriteString(in.Path.canon())
	b.WriteByte(0)
	for _, h := range in.Headers {
		b.WriteString(h.Name)
		b.WriteByte(1)
		b.WriteString(h.Match.canon())
		b.WriteByte(0)
	}
	fmt.Fprintf(&b, "%s/%d", in.Action, in.Precedence)
	return b.String()
}

// canon renders the predicate's canonical form.
func (m Match) canon() string { return m.Op.String() + ":" + m.Value }

// TestFoldMatchesCanon pins the streamed content hash to the string form:
// folding an intention equals fnv64Fold over its canon string, from the
// offset basis and from a running hash, for every op, headers, extreme
// precedences and empty fields — so bucket hashes, Fingerprint and the
// configpush resources they feed are bit-identical to the stored-string
// form.
func TestFoldMatchesCanon(t *testing.T) {
	cases := []Intention{
		{},
		{ID: "i", Name: "n", SrcTenant: "t", Src: Exact("web"), Dst: Exact("api"), Action: ActionAllow},
		{ID: "", Name: "", SrcTenant: WildcardTenant, Src: Any(), Dst: Any(), Action: ActionDeny},
		{ID: "p", SrcTenant: "t", Src: Prefix("job-"), Dst: Present(), Method: Exact("GET"),
			Path: Regex("^/v[0-9]+/.*$"), Precedence: -7},
		{ID: "h", Name: "headers", Src: Regex("a|b"), Dst: Prefix(""), Headers: []HeaderMatch{
			{Name: "x-role", Match: Exact("admin")},
			{Name: "", Match: Present()},
			{Name: "x-re", Match: Regex("^[a-z]+$")},
			{Name: "x-any", Match: Any()},
		}, Action: ActionDeny, Precedence: math.MaxInt},
		{ID: "min", Name: "ünïcode\x00", SrcTenant: "t|x", Precedence: math.MinInt},
		{ID: "op", Src: Match{Op: 99, Value: "v"}, Path: Match{Op: OpPresent, Value: "ignored"}, Precedence: 1},
	}
	running := uint64(fnvOffset)
	for i := range cases {
		in := &cases[i]
		want := fnv64Fold(fnvOffset, in.canon())
		if got := in.fold(fnvOffset); got != want {
			t.Errorf("case %d: fold %x, fnv64Fold(canon) %x (canon %q)", i, got, want, in.canon())
		}
		want = fnv64Fold(running, in.canon())
		if got := in.fold(running); got != want {
			t.Errorf("case %d: running fold %x, want %x", i, got, want)
		}
		running = want
	}

	// Through the compiler: a bucket's hash folds its members best first.
	c := NewCompiler(Config{Seed: 1})
	members := []Intention{
		{ID: "a", Name: "low", SrcTenant: "t", Src: Exact("s"), Dst: Exact("d"), Precedence: -1},
		{ID: "b", Name: "deny", SrcTenant: "t", Src: Exact("s"), Dst: Exact("d"), Action: ActionDeny,
			Path: Regex("^/x"), Headers: []HeaderMatch{{Name: "k", Match: Present()}}},
		{ID: "c", Name: "high", SrcTenant: "t", Src: Exact("s"), Dst: Exact("d"), Precedence: 1 << 40},
	}
	mustApply(t, c, nil, members)
	want := uint64(fnvOffset)
	for _, i := range []int{2, 1, 0} { // high, then deny, then low
		want = fnv64Fold(want, members[i].canon())
	}
	rs := c.Resources()
	if len(rs) != 1 || rs[0].Members != 3 || rs[0].Hash != want {
		t.Fatalf("bucket resources %+v, want one of 3 members with hash %x", rs, want)
	}
}

// TestFingerprintAfterTenantLeaves: a tenant whose last intention is
// deleted (or moved to another tenant) gives up its shard assignment, so
// the incrementally maintained table fingerprints like a full recompile of
// the same set.
func TestFingerprintAfterTenantLeaves(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	mustApply(t, c, nil, []Intention{
		{ID: "a1", Name: "a1", SrcTenant: "t1", Src: Exact("web"), Dst: Exact("api")},
		{ID: "a2", Name: "a2", SrcTenant: "t1", Src: Any(), Dst: Exact("db")},
		{ID: "b1", Name: "b1", SrcTenant: "t2", Src: Exact("web"), Dst: Exact("api"), Action: ActionDeny},
		{ID: "b2", Name: "b2", SrcTenant: "t2", Src: Prefix("job-"), Dst: Any()},
		{ID: "c1", Name: "c1", SrcTenant: "t3", Src: Exact("web"), Dst: Exact("api")},
	})
	// t2 leaves by deletion, t3 by its only intention moving to t1.
	mustApply(t, c, []string{"b1", "b2"}, []Intention{
		{ID: "c1", Name: "c1", SrcTenant: "t1", Src: Exact("batch"), Dst: Exact("api")},
	})
	inc, st := c.Fingerprint(), c.Stats()
	if st.Tenants != 1 {
		t.Fatalf("%d tenants hold a shard assignment after t2 and t3 left, want 1", st.Tenants)
	}
	c.Full()
	if full := c.Fingerprint(); inc != full {
		t.Fatalf("incremental fingerprint %x, full recompile %x", inc, full)
	}
	if after := c.Stats(); after != st {
		t.Fatalf("Full() changed the table shape: %+v -> %+v", st, after)
	}
	// The tenant can come back: a fresh assignment, the same deterministic
	// shards.
	mustApply(t, c, nil, []Intention{{ID: "b1", Name: "b1", SrcTenant: "t2", Src: Exact("web"), Dst: Exact("api"), Action: ActionDeny}})
	if v := c.Eval(Query{SrcTenant: "t2", SrcService: "web", DstService: "api"}); v.Allowed || v.Rule != "b1" {
		t.Fatalf("returning tenant's rule not applied: %+v", v)
	}
}

// TestPatternsShareAndRelease pins the intern table's lifetime through the
// compiler: one compiled expression per distinct pattern in use, shared by
// every predicate naming it; replacing intentions with the same patterns
// holds the count; a failed Apply leaves it as it was; deleting the last
// intention naming a pattern drops the pattern.
func TestPatternsShareAndRelease(t *testing.T) {
	c := NewCompiler(Config{Seed: 1})
	const n = 50
	var intents []Intention
	for i := 0; i < n; i++ {
		intents = append(intents,
			Intention{ID: fmt.Sprintf("u%d", i), Src: Any(), Dst: Exact("api"), Path: Regex(fmt.Sprintf("^/unique/%d$", i))},
			Intention{ID: fmt.Sprintf("s%d", i), Src: Regex("^job-"), Dst: Exact(fmt.Sprintf("d%d", i)),
				Headers: []HeaderMatch{{Name: "x", Match: Regex("^[0-9]+$")}}})
	}
	mustApply(t, c, nil, intents)
	if got := c.Patterns().Len(); got != n+2 {
		t.Fatalf("%d patterns interned, want %d", got, n+2)
	}
	if a, b := c.intentions["s0"].in.Src.re, c.intentions["s7"].in.Src.re; a == nil || a != b {
		t.Fatal("predicates naming one pattern must share one compiled expression")
	}
	if _, err := c.Apply(nil, []Intention{
		{ID: "x1", Src: Any(), Dst: Any(), Path: Regex("^/fresh$")},
		{ID: "x2", Src: Any(), Dst: Any(), Path: Regex("(")},
	}); err == nil {
		t.Fatal("invalid regex must fail Apply")
	}
	mustApply(t, c, nil, intents) // re-upsert: same patterns
	if got := c.Patterns().Len(); got != n+2 {
		t.Fatalf("%d patterns after a failed Apply and a same-pattern re-upsert, want %d", got, n+2)
	}
	ids := make([]string, 0, len(intents))
	for _, in := range intents {
		ids = append(ids, in.ID)
	}
	mustApply(t, c, ids[:n], nil) // u0, s0 ... u24, s24
	if got := c.Patterns().Len(); got != n/2+2 {
		t.Fatalf("%d patterns after deleting half the intentions, want %d", got, n/2+2)
	}
	mustApply(t, c, ids, nil)
	if got := c.Patterns().Len(); got != 0 {
		t.Fatalf("%d patterns left with no intention installed, want 0", got)
	}
}

func BenchmarkCompiledEval(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	c := NewCompiler(Config{Seed: 21})
	if _, err := c.Apply(nil, corpus(rng, 100000, 64, 48)); err != nil {
		b.Fatal(err)
	}
	qs := queries(rng, 1024, 64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Eval(qs[i%len(qs)])
	}
}
