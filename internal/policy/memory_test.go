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
	c := NewCompiler(Config{Seed: 1})
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
