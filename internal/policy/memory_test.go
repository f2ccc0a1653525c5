package policy

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// serviceAuthz builds one destination service's authorization intentions
// the way l7 translates a service's AuthzRule list (wildcard source tenant,
// exact destination, precedence zero) in the live-route workload's shape:
// allows and denies for a few named sources, a prefix deny, a path-regex
// deny, then filler allows for exact peers — every eighth by source prefix,
// every sixteenth with a path regex drawn from a small shared set — so
// nearly every rule sits alone in its (*, peer, service) bucket and the
// regexes repeat across services.
func serviceAuthz(rng *rand.Rand, svc string, n, patterns int) []Intention {
	out := make([]Intention, 0, n)
	add := func(in Intention) {
		if len(out) < n {
			in.ID = fmt.Sprintf("%s/authz/%d", svc, len(out))
			in.Name = fmt.Sprintf("a%d", len(out))
			in.Dst = Exact(svc)
			out = append(out, in)
		}
	}
	for _, s := range []string{"src-0", "src-1", "src-2"} {
		add(Intention{Src: Exact(s)})
	}
	for _, s := range []string{"blocked-0", "blocked-1"} {
		add(Intention{Src: Exact(s), Action: ActionDeny})
	}
	add(Intention{Src: Prefix("evil-"), Action: ActionDeny})
	add(Intention{Path: Regex("^/internal/secret/.*$"), Action: ActionDeny})
	for k := 0; len(out) < n; k++ {
		in := Intention{Src: Exact(fmt.Sprintf("peer-%d", rng.Intn(1<<20)))}
		if k%8 == 7 {
			in.Src = Prefix(fmt.Sprintf("team-%d-", k))
		}
		if k%16 == 3 {
			in.Path = Regex(fmt.Sprintf("^/reports/%d/.*$", rng.Intn(patterns)))
		}
		add(in)
	}
	return out
}

// TestPolicyBytesPerRule gates what one installed intention costs the
// compiler: heap in use after a GC, with the input set kept alive so only
// the compiled table, the intention index and the interned patterns count,
// over 10^4 intentions shaped like the live-route gateway's (104 services x
// 96 rules, about 30 distinct regexes).
func TestPolicyBytesPerRule(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap measurement: skipped under -short and -race")
	}
	rng := rand.New(rand.NewSource(1))
	var intents []Intention
	for s := 0; s < 104; s++ {
		intents = append(intents, serviceAuthz(rng, fmt.Sprintf("tenant-%02d/svc-%02d", s%32, s), 96, 29)...)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCompiler()
	if _, err := c.Apply(nil, intents); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRule := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(c.Len())
	runtime.KeepAlive(intents)
	runtime.KeepAlive(c)
	t.Logf("%d intentions: %.0f heap bytes per installed intention", c.Len(), perRule)
	if perRule > 500 {
		t.Fatalf("%.0f heap bytes per installed intention, want <= 500", perRule)
	}
}

// mallocsPerRun is every allocation runs calls of f make, divided by runs:
// a total, never truncated to a whole number per call.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// exactKeyRules is n intentions in the shape l7 translates AuthzRules to
// (wildcard source tenant, exact source and destination), each alone in its
// bucket across eight destinations, and a sixteenth of them denies.
func exactKeyRules(n int) []Intention {
	out := make([]Intention, n)
	for i := range out {
		out[i] = Intention{
			ID: fmt.Sprintf("r%d", i), Name: fmt.Sprintf("rule-%d", i),
			Src: Exact(fmt.Sprintf("peer-%d", i)), Dst: Exact(fmt.Sprintf("svc-%d", i%8)),
		}
		if i%16 == 5 {
			out[i].Action = ActionDeny
		}
	}
	return out
}

// TestCompilerAllocs pins what compiling costs in heap objects: a bulk
// Apply of fresh exact-key rules into an empty compiler, per rule, and
// Fingerprint, whose pin holds over ten buckets and over a thousand alike.
// Skipped under -race, whose instrumentation changes the counts.
func TestCompilerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const rules, runs = 1024, 8
	// applyPerRule is the pin: 2.21 measured. Per rule: the compiled
	// intention, its bucket's one-element rule slice, a sixteenth of a
	// deny's reason, and the amortized growth of the intention index, the
	// Apply's working set and the destination maps, whose splits move with
	// each map's hash seed by a thousandth. fingerprintAllocs: the arena
	// and the key offsets.
	const applyPerRule, fingerprintAllocs = 2.25, 2
	intents := exactKeyRules(rules)
	compilers := make([]*Compiler, runs)
	for i := range compilers {
		compilers[i] = NewCompiler()
	}
	next := 0
	got := mallocsPerRun(runs, func() {
		mustApply(t, compilers[next], nil, intents)
		next++
	}) / rules
	t.Logf("bulk Apply: %.3f objects per rule", got)
	if got > applyPerRule {
		t.Errorf("bulk Apply: %.3f objects per rule, pinned at %v", got, applyPerRule)
	}

	fingerprint := func(n int) float64 {
		c := NewCompiler()
		mustApply(t, c, nil, exactKeyRules(n))
		mustApply(t, c, nil, []Intention{{ID: "t", SrcTenant: "tenant", Src: Exact("web"), Dst: Exact("api")}})
		return mallocsPerRun(runs, func() { c.Fingerprint() })
	}
	small, large := fingerprint(10), fingerprint(1000)
	t.Logf("Fingerprint: %v objects over 11 buckets, %v over 1001", small, large)
	if small > fingerprintAllocs || large > fingerprintAllocs {
		t.Errorf("Fingerprint: %v objects over 11 buckets, %v over 1001, pinned at %v whatever the table's size",
			small, large, fingerprintAllocs)
	}
}
