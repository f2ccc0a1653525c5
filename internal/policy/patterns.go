package policy

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"sync"
	"unicode/utf8"
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

// pattern is one compiled expression, the literal every match of it begins
// with, and — while it is interned — the count of predicates holding it.
// Only refs changes after compilation, under the table's lock; re and prefix
// are what Match.Matches reads.
type pattern struct {
	re     *regexp.Regexp
	prefix string
	refs   int
}

// anchoredPrefix returns the literal text every match of expr starts with
// when expr is anchored at the start of the text, and "" when it is not or
// the literal cannot be compared byte for byte. It reads the parse tree
// regexp.Compile builds: a concatenation that opens with ^ as OpBeginText
// (not under (?m), where ^ is OpBeginLine and matches after any newline),
// followed by a case-sensitive literal. A literal holding U+FFFD is left
// out: the matcher decodes an invalid byte as that rune, so "\xff" matches
// ^\x{FFFD} without having its UTF-8 form as a prefix.
func anchoredPrefix(expr string) string {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil || re.Op != syntax.OpConcat || len(re.Sub) < 2 || re.Sub[0].Op != syntax.OpBeginText {
		return ""
	}
	lit := re.Sub[1]
	if lit.Op != syntax.OpLiteral || lit.Flags&syntax.FoldCase != 0 {
		return ""
	}
	for _, r := range lit.Rune {
		if r == utf8.RuneError || !utf8.ValidRune(r) {
			return ""
		}
	}
	return string(lit.Rune)
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
			e = fresh.re
			if p.m == nil {
				p.m = make(map[string]*pattern)
			}
			// The key is copied: m.Value may be a slice of a larger string
			// (l7's route programs cut theirs from one per-service arena)
			// that the table must not keep alive.
			p.m[strings.Clone(m.Value)] = e
		}
		e.refs++
		m.re = e
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
