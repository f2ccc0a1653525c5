// Package sim provides the discrete-event simulation kernel used by every
// simulated experiment in the repository: a virtual clock, an event queue,
// deterministic seeded randomness, and a multi-core processor model that
// turns per-request CPU costs into queueing delay and utilization curves.
//
// All simulated time is expressed as time.Duration offsets from the start of
// the simulation. Events scheduled for the same instant run in scheduling
// order, which keeps every experiment fully deterministic for a given seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now time.Duration
	// queue is a value-based 4-ary min-heap on (at, seq) whose entries hold
	// no pointer: an event names its callback by a slot in fns. Sifting
	// moves a hole and writes each displaced entry once, and neither those
	// writes (no write barrier) nor the GC (nothing to scan) touch a
	// pointer. (at, seq) is a strict total order (seq is unique),
	// so the pop sequence — and with it every regenerated table — is the
	// same whatever the heap's arity; four children per node, compared
	// without bounds checks, measured about a quarter faster per event than
	// two at both 1 k and 40 k pending events.
	queue []event
	// fns holds each pending event's callback, indexed by slot. A popped
	// slot is cleared, so the GC can collect its closure, and joins the
	// free list threaded through the slots' next fields.
	fns []slot
	// free is one more than the first free slot's index; 0 when none is.
	free   uint32
	seq    uint64
	rng    *rand.Rand
	halted bool
}

// New returns a simulator whose random source is seeded with seed, so runs
// are reproducible.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in experiment logic, so it panics loudly rather than corrupting the
// causal order of events.
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.push(event{at: t, seq: s.seq, slot: s.hold(fn)})
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Every schedules fn at now+interval, now+2*interval, ... until either the
// simulation drains or fn returns false.
func (s *Sim) Every(interval time.Duration, fn func() bool) {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	var tick func()
	tick = func() {
		if !fn() {
			return
		}
		s.After(interval, tick)
	}
	s.After(interval, tick)
}

// Run processes events until the queue is empty or Halt is called.
func (s *Sim) Run() {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		s.step()
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events scheduled after t remain queued.
func (s *Sim) RunUntil(t time.Duration) {
	s.halted = false
	for len(s.queue) > 0 && !s.halted && s.queue[0].at <= t {
		s.step()
	}
	if !s.halted && t > s.now {
		s.now = t
	}
}

// Halt stops Run/RunUntil after the current event completes. Pending events
// stay queued, so the simulation can be resumed.
func (s *Sim) Halt() { s.halted = true }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// event is one heap entry: when it fires, its scheduling order, and the slot
// of fns that holds its callback.
type event struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

// slot is one entry of the callback slab: the pending event's callback, or,
// while the slot is free, one more than the next free slot's index.
type slot struct {
	fn   func()
	next uint32
}

// before is the heap order: earliest timestamp first, scheduling order
// breaking ties.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// hold stores fn in a free slot of the slab and returns the slot's index.
func (s *Sim) hold(fn func()) uint32 {
	if s.free == 0 {
		s.fns = append(s.fns, slot{fn: fn})
		return uint32(len(s.fns) - 1)
	}
	i := s.free - 1
	s.free = s.fns[i].next
	s.fns[i] = slot{fn: fn}
	return i
}

// step pops the earliest event, advances the clock to it and runs it. Its
// slot is freed before the callback runs, so whatever the callback
// schedules can reuse it.
func (s *Sim) step() {
	ev := s.pop()
	fn := s.fns[ev.slot].fn
	s.fns[ev.slot] = slot{next: s.free}
	s.free = ev.slot + 1
	s.now = ev.at
	fn()
}

// push appends ev and sifts the hole it fills up to restore the heap
// invariant.
func (s *Sim) push(ev event) {
	s.queue = append(s.queue, ev)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event without allocating: the last
// entry fills the root's hole, which sinks below every smaller child. The
// four children of a full node are compared through one fixed-length view,
// so the comparisons carry no bounds checks.
func (s *Sim) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	s.queue = q
	i := 0
	for {
		first := 4*i + 1
		if first+4 <= n {
			c := q[first : first+4 : first+4]
			m := 0
			if c[1].before(&c[m]) {
				m = 1
			}
			if c[2].before(&c[m]) {
				m = 2
			}
			if c[3].before(&c[m]) {
				m = 3
			}
			if !c[m].before(&last) {
				break
			}
			q[i] = c[m]
			i = first + m
			continue
		}
		// The last inner node may have fewer than four children.
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < n; c++ {
			if q[c].before(&q[m]) {
				m = c
			}
		}
		if q[m].before(&last) {
			q[i] = q[m]
			i = m
		}
		break
	}
	if n > 0 {
		q[i] = last
	}
	return top
}
