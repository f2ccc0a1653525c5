package sim

import (
	"fmt"
	"testing"
	"time"
)

// scheduler is the part of Sim's API FuzzEventQueue drives. Sim and refSim,
// the reference, both implement it.
type scheduler interface {
	At(t time.Duration, fn func())
	After(d time.Duration, fn func())
	Every(interval time.Duration, fn func() bool)
	Run()
	RunUntil(t time.Duration)
	Halt()
	Now() time.Duration
	Pending() int
}

// refSim is the reference event queue: an unordered slice scanned for the
// least (at, seq) on every pop. It shares nothing with Sim's heap.
type refSim struct {
	now    time.Duration
	seq    uint64
	evs    []refEvent
	halted bool
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (r *refSim) At(t time.Duration, fn func()) {
	if t < r.now {
		panic("refSim: scheduling in the past")
	}
	r.seq++
	r.evs = append(r.evs, refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.At(r.now+d, fn)
}

func (r *refSim) Every(interval time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			r.After(interval, tick)
		}
	}
	r.After(interval, tick)
}

// least returns the index of the earliest pending event.
func (r *refSim) least() int {
	m := 0
	for i, e := range r.evs {
		if e.at < r.evs[m].at || e.at == r.evs[m].at && e.seq < r.evs[m].seq {
			m = i
		}
	}
	return m
}

func (r *refSim) step() {
	i := r.least()
	e := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	r.now = e.at
	e.fn()
}

func (r *refSim) Run() {
	r.halted = false
	for len(r.evs) > 0 && !r.halted {
		r.step()
	}
}

func (r *refSim) RunUntil(t time.Duration) {
	r.halted = false
	for len(r.evs) > 0 && !r.halted && r.evs[r.least()].at <= t {
		r.step()
	}
	if !r.halted && t > r.now {
		r.now = t
	}
}

func (r *refSim) Halt()              { r.halted = true }
func (r *refSim) Now() time.Duration { return r.now }
func (r *refSim) Pending() int       { return len(r.evs) }

// maxFuzzEvents bounds the callbacks one input may schedule, so a
// self-rescheduling input still terminates quickly.
const maxFuzzEvents = 4000

// queueScript plays a byte string against a scheduler and logs everything
// observable: which event fires, at what virtual time, with how many others
// pending, and the clock and queue length after every top-level call. The
// bytes are read on demand — by the top level to pick calls and by callbacks
// to pick what they schedule — so two schedulers that fire events in the same
// order read the same bytes and must write the same log.
type queueScript struct {
	s         scheduler
	data      []byte
	scheduled int
	log       []string
}

// next returns the next input byte, or 0 once the input is spent.
func (q *queueScript) next() byte {
	if len(q.data) == 0 {
		return 0
	}
	b := q.data[0]
	q.data = q.data[1:]
	return b
}

// delay decodes a short delay. Many inputs land on the same instant, which
// exercises the seq tie-break.
func (q *queueScript) delay() time.Duration {
	return time.Duration(q.next()%8) * time.Microsecond
}

func (q *queueScript) logf(format string, args ...any) {
	q.log = append(q.log, fmt.Sprintf(format, args...))
}

// event returns a fresh callback; each carries its own id into the log.
func (q *queueScript) event() func() {
	if q.scheduled >= maxFuzzEvents {
		return func() { q.logf("capped at %v", q.s.Now()) }
	}
	q.scheduled++
	id := q.scheduled
	return func() {
		q.logf("event %d at %v, %d pending", id, q.s.Now(), q.s.Pending())
		switch q.next() % 8 {
		case 3:
			q.s.After(q.delay(), q.event())
		case 4:
			q.s.At(q.s.Now()+q.delay(), q.event())
		case 5:
			q.s.Halt()
		case 6:
			d := q.delay()
			q.s.After(d, q.event())
			q.s.After(d, q.event())
		case 7:
			q.every()
		}
	}
}

// every starts a periodic callback that keeps ticking while the input says
// so.
func (q *queueScript) every() {
	q.scheduled++
	id := q.scheduled
	ticks := 0
	q.s.Every(q.delay()+time.Microsecond, func() bool {
		ticks++
		q.logf("tick %d.%d at %v, %d pending", id, ticks, q.s.Now(), q.s.Pending())
		return q.scheduled < maxFuzzEvents && q.next()%4 != 0
	})
}

// play runs the whole input, then drains the queue (resuming after halts).
func (q *queueScript) play() []string {
	for len(q.data) > 0 {
		switch q.next() % 6 {
		case 0:
			q.s.At(q.s.Now()+q.delay(), q.event())
		case 1:
			// Negative delays clamp to now.
			q.s.After(q.delay()-4*time.Microsecond, q.event())
		case 2:
			q.every()
		case 3:
			q.s.RunUntil(q.s.Now() + q.delay())
		case 4:
			q.s.Run()
		case 5:
			q.s.At(q.s.Now()+q.delay(), func() {
				q.logf("halt at %v", q.s.Now())
				q.s.Halt()
			})
		}
		q.logf("now %v, %d pending", q.s.Now(), q.s.Pending())
	}
	for q.s.Pending() > 0 {
		q.s.Run()
	}
	q.logf("drained at %v", q.s.Now())
	return q.log
}

// FuzzEventQueue checks Sim's heap and callback slab against refSim: for any
// interleaving of At, After, Every, RunUntil, Run and Halt — including
// events scheduled and halts raised from inside callbacks — events fire in
// (at, seq) order, and Now and Pending agree at every step.
func FuzzEventQueue(f *testing.F) {
	// Seeds shaped after sim_test.go: events out of order
	// (TestEventOrdering);
	// same-instant FIFO (TestSameInstantFIFO); nested After
	// (TestAfterAndNesting); RunUntil leaving later events queued
	// (TestRunUntil); a halt then a resume (TestHalt); Every (TestEvery).
	f.Add([]byte{0, 3, 0, 1, 0, 2, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 5, 4, 3, 2, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 7, 3, 3, 4})
	f.Add([]byte{5, 1, 0, 2, 4, 4})
	f.Add([]byte{2, 0, 4, 1, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := (&queueScript{s: &refSim{}, data: data}).play()
		got := (&queueScript{s: New(1), data: data}).play()
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("line %d: Sim %q, reference %q", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Sim wrote %d log lines, the reference %d", len(got), len(want))
		}
	})
}
