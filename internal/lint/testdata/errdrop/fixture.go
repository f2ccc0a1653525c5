// Package fixture exercises errdrop.
package fixture

import (
	"fmt"
	"strings"
)

type flusher struct {
	n int
}

func (f *flusher) Flush() error {
	if f.n == 0 {
		return fmt.Errorf("empty")
	}
	return nil
}

func (f *flusher) Count() int { return f.n }

func save(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	return nil
}

func report() string { return "ok" }

func drops(f *flusher) {
	save("x")     // want "save returns an error that is silently discarded"
	f.Flush()     // want "f.Flush returns an error that is silently discarded"
	_ = save("x") // explicit discard is a visible decision
	if err := save("y"); err != nil {
		_ = err
	}
	defer f.Flush() // deferred cleanup is out of scope by design
	report()        // no error result; quiet
	f.Count()       // no error result; quiet
}

func localLit() {
	g := &flusher{n: 1}
	g.Flush() // want "g.Flush returns an error that is silently discarded"
}

type closer interface{ Close() error }

type owner struct {
	f   *flusher
	out closer
}

func newFlusher() *flusher { return &flusher{n: 1} }

// indirect reaches the callee through a field, an interface value and a
// call result; the callee's declared result type decides, not the shape of
// the receiver expression.
func indirect(o *owner, b *strings.Builder) {
	o.f.Flush()          // want "o.f.Flush returns an error that is silently discarded"
	o.out.Close()        // want "o.out.Close returns an error that is silently discarded"
	newFlusher().Flush() // want "newFlusher().Flush returns an error that is silently discarded"
	b.WriteString("x")   // standard-library callee: out of scope
}

// deferredDiscards pins the audited defer exemption: a deferred cleanup
// call discarding its error is NOT flagged, in any resolvable form —
// package function, method on a parameter, or method on a local. If a
// future change makes any of these lines report, this fixture fails and
// the exemption documented on ErrDrop has to be re-argued explicitly.
func deferredDiscards(f *flusher) {
	defer save("deferred")
	defer f.Flush()
	g := &flusher{n: 2}
	defer g.Flush()
	// The same calls in statement position still report, so the exemption
	// is exactly defer-shaped, not a hole in callee resolution.
	save("deferred") // want "save returns an error that is silently discarded"
}
