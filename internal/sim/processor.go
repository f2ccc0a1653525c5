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
// Exec calls, Work carries the metadata a queue discipline needs to make
// admission decisions: which tenant it belongs to, how much CPU it costs, and
// what to do if the discipline sheds it instead of running it.
type Work struct {
	// Tenant classifies the work for per-tenant queueing disciplines.
	Tenant string
	// Cost is the CPU time the work consumes once started.
	Cost time.Duration
	// Do runs at completion (after Cost of CPU time on a core).
	Do func()
	// Drop runs instead of Do when a discipline sheds the work; sojourn is
	// how long the work waited in queue before being shed (0 when rejected
	// at enqueue).
	Drop func(sojourn time.Duration)
	// EnqueuedAt is stamped by the processor when the work enters a queue.
	EnqueuedAt time.Duration

	// proc and core say where the work runs once started; finish, bound to
	// the value the first time it starts, is its completion event, so a
	// Work that is reused costs no allocation per run.
	proc   *Processor
	core   int
	finish func()
}

// QueueDiscipline is a pluggable queue a Processor consults when all cores
// are busy. The default (nil) discipline preserves the analytic FCFS model of
// Exec; installing one switches Submit to explicit event-driven queueing with
// admission control — per-tenant fair queueing, CoDel, bounded queues.
//
// Disciplines may shed work: Enqueue returning false rejects it outright, and
// Dequeue may invoke Drop on items it decides to discard before returning the
// next runnable item. The processor invokes Drop for enqueue rejections.
type QueueDiscipline interface {
	// Enqueue offers w to the queue at virtual time now. Returning false
	// rejects the work (queue full / policy); the processor then invokes
	// w.Drop with zero sojourn.
	Enqueue(now time.Duration, w *Work) bool
	// Dequeue returns the next work item to run, or nil when the queue has
	// nothing runnable. It is called each time a core frees up.
	Dequeue(now time.Duration) *Work
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
	// refill is fill, bound once when a discipline is installed: the event
	// an Exec completion schedules so queued work reclaims the freed core.
	refill func()
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
// work item is still one event in the queue's order. With a queue
// discipline installed, a second event right behind the completion hands
// queued work to the cores it frees.
func (p *Processor) Exec(cost time.Duration, fn func()) time.Duration {
	if cost < 0 {
		panic(fmt.Sprintf("sim: processor %q got negative cost %v", p.name, cost))
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
	if p.disc != nil {
		p.sim.At(end, p.refill)
	}
	return end
}

// noop completes work submitted without a completion callback.
func noop() {}

// SetDiscipline installs (or, with nil, removes) a queue discipline consulted
// by Submit when every core is busy. Work already queued in a replaced
// discipline stays there and is never drained — install disciplines before
// offering load.
func (p *Processor) SetDiscipline(d QueueDiscipline) {
	p.disc = d
	if d != nil && p.refill == nil {
		p.refill = p.fill
	}
}

// Discipline returns the installed queue discipline, or nil.
func (p *Processor) Discipline() QueueDiscipline { return p.disc }

// QueueLen returns the number of items waiting in the installed discipline
// (0 without one; the analytic Exec path has no countable queue).
func (p *Processor) QueueLen() int {
	if p.disc == nil {
		return 0
	}
	return p.disc.Len()
}

// Submit offers w to the processor. Without a discipline it behaves exactly
// like Exec(w.Cost, w.Do). With one, w starts immediately if a core is idle;
// otherwise it enters the discipline's queue and starts when the discipline
// hands it to a freed core — or gets shed, invoking w.Drop.
func (p *Processor) Submit(w *Work) {
	if w.Cost < 0 {
		panic(fmt.Sprintf("sim: processor %q got negative cost %v", p.name, w.Cost))
	}
	if p.disc == nil {
		p.Exec(w.Cost, w.Do)
		return
	}
	now := p.sim.Now()
	if core, ok := p.idleCore(now); ok {
		p.startWork(core, now, w)
		return
	}
	w.EnqueuedAt = now
	if !p.disc.Enqueue(now, w) {
		if w.Drop != nil {
			w.Drop(0)
		}
	}
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
		// An interleaved Exec claimed the core analytically; that Exec's
		// completion drains instead.
		return
	}
	if w := p.disc.Dequeue(now); w != nil {
		p.startWork(core, now, w)
	}
}

// fill starts queued work on every idle core, for as long as the discipline
// has any.
func (p *Processor) fill() {
	if p.disc == nil {
		return
	}
	now := p.sim.Now()
	for {
		core, ok := p.idleCore(now)
		if !ok {
			return
		}
		w := p.disc.Dequeue(now)
		if w == nil {
			return
		}
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

// AddCores grows the processor by n cores, effective immediately. This models
// vertical scale-up of a replica VM.
func (p *Processor) AddCores(n int) {
	now := p.sim.Now()
	for i := 0; i < n; i++ {
		p.cores = append(p.cores, now)
	}
	// Queued work can start on the new cores right away.
	p.fill()
}
