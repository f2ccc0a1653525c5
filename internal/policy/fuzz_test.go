package policy

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzReader hands out the fuzz input a byte at a time, zeros once spent.
type fuzzReader struct {
	data []byte
}

func (r *fuzzReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// pick chooses one of the options by the next byte.
func pick[T any](r *fuzzReader, opts ...T) T { return opts[r.next()%len(opts)] }

// fuzzMatch draws a predicate over a small value space: shared regex
// patterns most intentions name — anchored ones with a literal prefix and
// ones whose ^ gives none — and unique ones only one does.
func fuzzMatch(r *fuzzReader, values ...string) Match {
	switch r.next() % 6 {
	case 0, 1:
		return Any()
	case 2:
		return Exact(pick(r, values...))
	case 3:
		return Prefix(pick(r, values...)[:1])
	case 4:
		return Regex(pick(r, "^s[01]$", "^/a/[0-9]+$", "d", "^/b", "^/a/1", "(?i)^/a/1$", "^/a|^/b", "(?m)^/b$"))
	default:
		return Regex(fmt.Sprintf("^/u%d$", r.next()))
	}
}

// fuzzDst draws a destination predicate: an exact destination half the
// time, so wildcard-tenant intentions land in both the per-destination
// buckets and the wildcard-destination ones eval probes only when some
// exist.
func fuzzDst(r *fuzzReader) Match {
	if r.next()%2 == 0 {
		return Exact(pick(r, "d0", "d1"))
	}
	return fuzzMatch(r, "d0", "d1")
}

// fuzzIntention draws one intention; IDs come from a pool of eight so
// re-upserts (and with them allow/deny flips and bucket moves) are common.
func fuzzIntention(r *fuzzReader) Intention {
	in := Intention{
		ID:         fmt.Sprintf("i%d", r.next()%8),
		Name:       fmt.Sprintf("n%d", r.next()%4),
		SrcTenant:  pick(r, "", WildcardTenant, "t0", "t1", "t2"),
		Src:        fuzzMatch(r, "s0", "s1"),
		Dst:        fuzzDst(r),
		Method:     pick(r, Any(), Exact("GET")),
		Path:       fuzzMatch(r, "/a/1", "/b"),
		Action:     pick(r, ActionAllow, ActionDeny),
		Precedence: pick(r, -1, 0, 0, 1, 2),
	}
	if r.next()%4 == 0 {
		in.Headers = []HeaderMatch{{Name: "x", Match: fuzzMatch(r, "v", "w")}}
	}
	return in
}

// fuzzQueries is the fixed request grid every step is checked on.
func fuzzQueries() []Query {
	var qs []Query
	for _, tenant := range []string{"t0", "t1", "t9"} {
		for _, src := range []string{"s0", "s1"} {
			for _, dst := range []string{"d0", "d1"} {
				for i, path := range []string{"/a/1", "/b", "/u3", "/A/1", "/a/12", "x/b"} {
					q := Query{SrcTenant: tenant, SrcService: src, DstService: dst, Method: "GET", Path: path}
					if i == 1 {
						q.Method = "POST"
						q.Headers = map[string]string{"x": "v"}
					}
					qs = append(qs, q)
				}
			}
		}
	}
	return qs
}

// FuzzCompilerEval differentially tests the incrementally maintained table
// against the linear oracle over random apply/delete sequences: after every
// Apply, verdicts (rule attribution and reasons included) equal Baseline's
// over the installed set in installation order, the fingerprint equals a
// fresh compile's, the intern table holds exactly the distinct patterns in
// use, a failed Apply changes nothing, and the change feed, drained into a
// copy of the bucket list, keeps that copy equal to Resources(). At the end
// the incremental fingerprint must equal Full()'s.
func FuzzCompilerEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x02\x00\x01\x02\x03\x04\x05\x05\x05\x05\x05\x05\x05\x05\x03\x02\x01"))
	f.Add([]byte("tenant t1 leaves: delete every rule it holds, then flip the survivors"))
	// One batch puts allows from t0's s0 and s1 to d0 in two new buckets,
	// whose lists fill carves side by side; a later batch adds a deny to the
	// first. A list whose capacity ran past its own region would take the
	// deny in place, into the second bucket's slot.
	f.Add([]byte{
		2, 0, 1, // two upserts
		0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 1, 1, // i0: t0 s0 -> d0, allow
		1, 1, 2, 2, 1, 0, 0, 0, 0, 0, 1, 1, // i1: t0 s1 -> d0, allow
		2, 0, 0, // one upsert
		2, 2, 2, 2, 0, 0, 0, 0, 0, 1, 1, 1, // i2: t0 s0 -> d0, deny
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		c := NewCompiler()
		c.TrackChanges()
		fed := map[string]BucketResource{} // the bucket list rebuilt from the feed
		var live []Intention               // installation order
		qs := fuzzQueries()
		for step := 0; step < 24 && len(r.data) > 0; step++ {
			var deletes []string
			var upserts []Intention
			switch r.next() % 4 {
			case 0: // a tenant's every rule, so its last bucket empties
				tenant := pick(r, "t0", "t1", "t2")
				for _, in := range live {
					if in.SrcTenant == tenant {
						deletes = append(deletes, in.ID)
					}
				}
			case 1: // a rejected batch
				upserts = []Intention{fuzzIntention(r), {ID: "bad", Path: Regex("(")}}
			default:
				for n := r.next() % 3; n > 0; n-- {
					deletes = append(deletes, fmt.Sprintf("i%d", r.next()%8))
				}
				for n := 1 + r.next()%3; n > 0; n-- {
					upserts = append(upserts, fuzzIntention(r))
				}
			}
			fp, patterns := c.Fingerprint(), c.Patterns().Len()
			if _, err := c.Apply(deletes, upserts); err != nil {
				if c.Fingerprint() != fp || c.Patterns().Len() != patterns || c.Len() != len(live) || len(c.Changes()) != 0 {
					t.Fatalf("step %d: failed Apply changed the compiler", step)
				}
				continue
			}
			// The model: deletes first, then each upsert replaces its ID and
			// installs last.
			for _, id := range deletes {
				live = slices.DeleteFunc(live, func(in Intention) bool { return in.ID == id })
			}
			for _, u := range upserts {
				live = slices.DeleteFunc(live, func(in Intention) bool { return in.ID == u.ID })
				live = append(live, u)
			}
			checkAgainstOracle(t, step, c, live, qs)
			checkFeed(t, step, c, fed)
		}
		inc := c.Fingerprint()
		c.Full()
		if full := c.Fingerprint(); inc != full {
			t.Fatalf("incremental fingerprint %x, Full() %x", inc, full)
		}
		checkFeed(t, -1, c, fed)
		checkAgainstOracle(t, -1, c, live, qs)
	})
}

// checkAgainstOracle compares c with a linear oracle and a fresh compile of
// live, installed in order.
func checkAgainstOracle(t *testing.T, step int, c *Compiler, live []Intention, qs []Query) {
	t.Helper()
	base, err := NewBaseline(live)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if got, want := c.Eval(q), base.Eval(q); got != want {
			t.Fatalf("step %d query %+v: compiled %+v, oracle %+v", step, q, got, want)
		}
	}
	fresh := NewCompiler()
	if _, err := fresh.Apply(nil, live); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("step %d: incremental fingerprint %x, fresh compile %x (stats %+v vs %+v)",
			step, got, want, c.Stats(), fresh.Stats())
	}
	distinct := map[string]bool{}
	for i := range live {
		for _, m := range live[i].appendPredicates(nil) {
			if m.Op == OpRegex {
				distinct[m.Value] = true
			}
		}
	}
	if got := c.Patterns().Len(); got != len(distinct) {
		t.Fatalf("step %d: %d patterns interned, %d in use", step, got, len(distinct))
	}
}

// checkFeed drains c's change feed into fed — a changed bucket replaces its
// entry, an emptied one removes it — and checks fed lists exactly
// Resources().
func checkFeed(t *testing.T, step int, c *Compiler, fed map[string]BucketResource) {
	t.Helper()
	for _, br := range c.Changes() {
		if br.Members == 0 {
			delete(fed, br.Key)
		} else {
			fed[br.Key] = br
		}
	}
	all := c.Resources()
	if len(all) != len(fed) {
		t.Fatalf("step %d: the feed rebuilt %d buckets, the table holds %d", step, len(fed), len(all))
	}
	for _, br := range all {
		if fed[br.Key] != br {
			t.Fatalf("step %d: the feed holds %+v for bucket %q, the table %+v", step, fed[br.Key], br.Key, br)
		}
	}
}
