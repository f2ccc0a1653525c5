package sim

import (
	"fmt"
	"time"
)

// UtilBucket is the granularity at which Processor accounts busy time for
// utilization reporting. One second matches the sampling interval the paper's
// monitoring system uses for backend water levels.
const UtilBucket = time.Second

// Work is a unit of schedulable work submitted through Submit. Unlike plain
// Exec calls, Work carries what a queue discipline orders by: which tenant
// it belongs to and how much CPU it costs.
type Work struct {
	// Tenant classifies the work for per-tenant queueing disciplines.
	Tenant string
	// Cost is the CPU time the work consumes once started.
	Cost time.Duration
	// Do runs at completion (after Cost of CPU time on a core).
	Do func()

	// proc and core say where the work runs once started; finish, bound to
	// the value the first time it starts, is its completion event, so a
	// Work that is reused costs no allocation per run.
	proc   *Processor
	core   int
	finish func()
}

// QueueDiscipline is a pluggable queue a Processor consults when all cores
// are busy. The default (nil) discipline preserves the analytic FCFS model of
// Exec; installing one switches Submit to explicit event-driven queueing,
// such as per-tenant fair queueing. A discipline orders work and never sheds
// it: everything enqueued is dequeued, and runs, exactly once.
type QueueDiscipline interface {
	// Enqueue adds w to the queue.
	Enqueue(w *Work)
	// Dequeue returns the next work item to run, or nil when the queue is
	// empty. It is called each time a core frees up.
	Dequeue() *Work
	// Len reports the number of queued items.
	Len() int
}

// Processor models a multi-core FCFS work-conserving CPU. Each Exec charges a
// CPU cost to the earliest-available core; when all cores are busy the work
// queues, which is the mechanism behind every latency knee in the paper's
// figures (Figs 2, 11, 13).
type Processor struct {
	sim   *Sim
	name  string
	cores []time.Duration // next instant each core becomes free
	// busy holds the busy time of each closed utilization bucket, indexed by
	// bucket; the open bucket's, openBusy, is folded in only when work lands
	// in another one. It starts with room for 8 buckets, so closing one of
	// a processor's first seconds allocates nothing: the record grows
	// with simulated time, never with the number of requests.
	busy     []time.Duration
	open     int64
	openBusy time.Duration
	total    time.Duration // cumulative busy time across cores
	disc     QueueDiscipline
}

// NewProcessor returns a processor with the given core count attached to s.
func NewProcessor(s *Sim, name string, cores int) *Processor {
	if cores <= 0 {
		panic(fmt.Sprintf("sim: processor %q needs at least one core", name))
	}
	return &Processor{
		sim:   s,
		name:  name,
		cores: make([]time.Duration, cores),
		busy:  make([]time.Duration, 0, 8),
	}
}

// Name returns the processor's diagnostic name.
func (p *Processor) Name() string { return p.name }

// Cores returns the processor's core count.
func (p *Processor) Cores() int { return len(p.cores) }

// BusyTotal returns cumulative busy core-time since creation.
func (p *Processor) BusyTotal() time.Duration { return p.total }

// Exec queues work costing cost CPU time and invokes fn (if non-nil) when it
// completes. It returns the completion instant, so callers can chain hops.
// The completion event holds fn itself; a nil fn schedules noop, so every
// work item is still one event in the queue's order. Exec claims a core
// analytically, behind the discipline's back, so it panics on a processor
// with a queue discipline installed: that processor takes work through
// Submit only.
func (p *Processor) Exec(cost time.Duration, fn func()) time.Duration {
	if cost < 0 {
		panic(fmt.Sprintf("sim: processor %q got negative cost %v", p.name, cost))
	}
	if p.disc != nil {
		panic(fmt.Sprintf("sim: Exec on processor %q, which has a queue discipline", p.name))
	}
	now := p.sim.Now()
	core := 0
	for i := 1; i < len(p.cores); i++ {
		if p.cores[i] < p.cores[core] {
			core = i
		}
	}
	start := p.cores[core]
	if start < now {
		start = now
	}
	end := start + cost
	p.cores[core] = end
	p.account(start, end)
	p.total += cost
	if fn == nil {
		fn = noop
	}
	p.sim.At(end, fn)
	return end
}

// noop completes work submitted without a completion callback.
func noop() {}

// SetDiscipline installs (or, with nil, removes) a queue discipline consulted
// by Submit when every core is busy. Work already queued in a replaced
// discipline stays there and is never drained — install disciplines before
// offering load.
func (p *Processor) SetDiscipline(d QueueDiscipline) { p.disc = d }

// Discipline returns the installed queue discipline, or nil.
func (p *Processor) Discipline() QueueDiscipline { return p.disc }

// Submit offers w to the processor. Without a discipline it behaves exactly
// like Exec(w.Cost, w.Do). With one, w starts at once only while the
// discipline is empty and a core is free; otherwise it joins the
// discipline's queue and starts when the discipline hands it to a freed
// core. A core whose work ends at this very instant counts as free, but
// only an empty queue lets new work take it: anything already waiting goes
// first.
func (p *Processor) Submit(w *Work) {
	if w.Cost < 0 {
		panic(fmt.Sprintf("sim: processor %q got negative cost %v", p.name, w.Cost))
	}
	if p.disc == nil {
		p.Exec(w.Cost, w.Do)
		return
	}
	now := p.sim.Now()
	if p.disc.Len() == 0 {
		if core, ok := p.idleCore(now); ok {
			p.startWork(core, now, w)
			return
		}
	}
	p.disc.Enqueue(w)
}

// idleCore returns a core index free at now, if any.
func (p *Processor) idleCore(now time.Duration) (int, bool) {
	for i, c := range p.cores {
		if c <= now {
			return i, true
		}
	}
	return 0, false
}

// startWork runs w on the given idle core starting at now, then drains the
// discipline when the core frees.
func (p *Processor) startWork(core int, now time.Duration, w *Work) {
	end := now + w.Cost
	p.cores[core] = end
	p.account(now, end)
	p.total += w.Cost
	w.proc, w.core = p, core
	if w.finish == nil {
		w.finish = w.complete
	}
	p.sim.At(end, w.finish)
}

// complete is a started Work's completion event. Do may end the work's
// owner and hand the value to new work, so where it ran is read first.
func (w *Work) complete() {
	p, core := w.proc, w.core
	if w.Do != nil {
		w.Do()
	}
	p.drain(core)
}

// drain moves the next queued item (if any) onto the freed core.
func (p *Processor) drain(core int) {
	if p.disc == nil {
		return
	}
	now := p.sim.Now()
	if p.cores[core] > now {
		// Submit started work on this core at this instant, before this
		// completion ran; that work's own completion drains instead.
		return
	}
	if w := p.disc.Dequeue(); w != nil {
		p.startWork(core, now, w)
	}
}

// QueueDelay returns how long newly submitted work would wait before starting.
func (p *Processor) QueueDelay() time.Duration {
	now := p.sim.Now()
	min := p.cores[0]
	for _, c := range p.cores[1:] {
		if c < min {
			min = c
		}
	}
	if min <= now {
		return 0
	}
	return min - now
}

// account spreads the busy interval [start, end) across utilization buckets.
func (p *Processor) account(start, end time.Duration) {
	for start < end {
		b := int64(start / UtilBucket)
		bEnd := time.Duration(b+1) * UtilBucket
		if bEnd > end {
			bEnd = end
		}
		if b != p.open {
			if p.openBusy != 0 {
				if n := int(p.open) + 1; n > len(p.busy) {
					p.busy = append(p.busy, make([]time.Duration, n-len(p.busy))...)
				}
				p.busy[p.open] += p.openBusy
			}
			p.open, p.openBusy = b, 0
		}
		p.openBusy += bEnd - start
		start = bEnd
	}
}

// busyIn returns the busy time accounted to bucket b, open or closed.
func (p *Processor) busyIn(b int64) time.Duration {
	var d time.Duration
	if b >= 0 && b < int64(len(p.busy)) {
		d = p.busy[b]
	}
	if b == p.open {
		d += p.openBusy
	}
	return d
}

// Utilization returns the fraction of core capacity used during the bucket
// containing t, in [0, 1].
func (p *Processor) Utilization(t time.Duration) float64 {
	b := int64(t / UtilBucket)
	u := float64(p.busyIn(b)) / (float64(UtilBucket) * float64(len(p.cores)))
	if u > 1 {
		u = 1
	}
	return u
}

// UtilizationRange returns average utilization over [from, to).
func (p *Processor) UtilizationRange(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var sum time.Duration
	for b := int64(from / UtilBucket); b <= int64((to-time.Nanosecond)/UtilBucket); b++ {
		sum += p.busyIn(b)
	}
	u := float64(sum) / (float64(to-from) * float64(len(p.cores)))
	if u > 1 {
		u = 1
	}
	return u
}
