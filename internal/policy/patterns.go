package policy

import (
	"regexp"
	"sync"
)

// Patterns is a reference-counted intern table of compiled regular
// expressions: one *regexp.Regexp per distinct pattern that some installed
// predicate names, shared by all of them. Thousands of rules naming a few
// dozen patterns cost a few dozen compiled programs, not thousands.
//
// Every successful Intern of a predicate is paired with one Release of it
// when whatever installed the predicate drops it; a pattern leaves the table
// with its last reference, so a tenant cycling unique patterns cannot grow
// it. Release only forgets: a predicate keeps its compiled expression, so a
// request still matching against a replaced configuration is unaffected.
// The zero value is an empty table, safe for concurrent use.
type Patterns struct {
	mu sync.Mutex
	m  map[string]*pattern
}

// pattern is one interned expression and the count of predicates holding it.
type pattern struct {
	re   *regexp.Regexp
	refs int
}

// Intern points every regex predicate in ms at the table's compiled
// expression for its pattern, compiling it (Match.Compile) on first use, and
// takes one reference per predicate. Predicates of other ops are skipped. On
// an invalid pattern it returns Compile's error and holds no reference for
// any of ms.
func (p *Patterns) Intern(ms ...*Match) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, m := range ms {
		if m.Op != OpRegex {
			continue
		}
		e := p.m[m.Value]
		if e == nil {
			fresh := Regex(m.Value)
			if err := fresh.Compile(); err != nil {
				p.release(ms[:i])
				return err
			}
			if p.m == nil {
				p.m = make(map[string]*pattern)
			}
			e = &pattern{re: fresh.re}
			p.m[m.Value] = e
		}
		e.refs++
		m.re = e.re
	}
	return nil
}

// Release drops the references Intern took for ms.
func (p *Patterns) Release(ms ...*Match) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.release(ms)
}

func (p *Patterns) release(ms []*Match) {
	for _, m := range ms {
		if m.Op != OpRegex {
			continue
		}
		if e := p.m[m.Value]; e != nil {
			if e.refs--; e.refs == 0 {
				delete(p.m, m.Value)
			}
		}
	}
}

// Len returns the number of distinct patterns held.
func (p *Patterns) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}
