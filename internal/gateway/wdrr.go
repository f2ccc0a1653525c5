package gateway

import (
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/sim"
	"canalmesh/internal/units"
)

// tenantQueue is one tenant's FIFO at one replica, with its WDRR deficit and
// CoDel state. items is a sliding-window slice: head indexes the front so
// pops are O(1) without reallocating.
type tenantQueue struct {
	tenant  string
	items   []*sim.Work
	head    int
	deficit time.Duration
	weight  float64
	codel   *coDel
	active  bool
}

func (q *tenantQueue) len() int { return len(q.items) - q.head }

func (q *tenantQueue) push(w *sim.Work) { q.items = append(q.items, w) }

func (q *tenantQueue) peek() *sim.Work { return q.items[q.head] }

func (q *tenantQueue) pop() *sim.Work {
	w := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return w
}

// wdrrQueue is a weighted deficit-round-robin scheduler over per-tenant FIFOs
// with per-tenant CoDel — fq_codel applied to gateway requests. It implements
// sim.QueueDiscipline, so a gateway replica's Processor consults it whenever
// all cores are busy: one tenant's flash crowd piles up in that tenant's own
// queue (and gets CoDel-shed once its sojourn stands above target) while
// other tenants' requests keep flowing at their weighted share of the CPU.
//
// wdrrQueue is not safe for concurrent use; in the simulator a single event loop
// owns it, and each instance belongs to exactly one replica.
type wdrrQueue struct {
	cfg     admission.Config
	metrics *admission.Metrics
	byName  map[string]*tenantQueue
	ring    []*tenantQueue // active tenant queues, round-robin order
	cur     int            // ring index currently being served
	fresh   bool           // true when cur just arrived at a queue (owed its quantum)
	size    int
}

// perTenantCap bounds each tenant's queue at each replica.
const perTenantCap = 128

// newWDRRQueue returns a WDRR+CoDel queue with the given config. metrics may be
// nil.
func newWDRRQueue(cfg admission.Config, metrics *admission.Metrics) *wdrrQueue {
	return &wdrrQueue{
		cfg:     cfg.WithDefaults(),
		metrics: metrics,
		byName:  make(map[string]*tenantQueue),
	}
}

// Len implements sim.QueueDiscipline.
func (q *wdrrQueue) Len() int { return q.size }

func (q *wdrrQueue) key(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// Enqueue implements sim.QueueDiscipline: the work joins its tenant's FIFO
// unless that FIFO is at its cap, in which case the work is rejected and the
// caller sheds it immediately (fast typed rejection, no sojourn wasted).
func (q *wdrrQueue) Enqueue(now time.Duration, w *sim.Work) bool {
	name := q.key(w.Tenant)
	tq, ok := q.byName[name]
	if !ok {
		tq = &tenantQueue{
			tenant: name,
			weight: q.cfg.Weight(name),
			codel:  newCoDel(q.cfg.Target, q.cfg.Interval),
		}
		q.byName[name] = tq
	}
	if tq.len() >= perTenantCap {
		if q.metrics != nil {
			q.metrics.RecordShed(name, admission.ReasonQueueFull)
		}
		return false
	}
	w.EnqueuedAt = now
	tq.push(w)
	q.size++
	if !tq.active {
		tq.active = true
		tq.deficit = 0
		q.ring = append(q.ring, tq)
		if len(q.ring) == 1 {
			q.cur = 0
			q.fresh = true
		}
	}
	return true
}

// Dequeue implements sim.QueueDiscipline: deficit round-robin across active
// tenants (Shreedhar & Varghese: a queue's deficit is topped up exactly once
// per visit, and the cursor moves on when the deficit can't cover the head),
// with each popped item passed through its tenant's CoDel. CoDel casualties
// invoke their Drop callback here and the scan continues, so a freed core
// never idles while runnable work exists.
func (q *wdrrQueue) Dequeue(now time.Duration) *sim.Work {
	for q.size > 0 {
		if q.cur >= len(q.ring) {
			q.cur = 0
			q.fresh = true
		}
		tq := q.ring[q.cur]
		if q.fresh {
			tq.deficit += units.Scale(q.cfg.Quantum, tq.weight)
			q.fresh = false
		}
		head := tq.peek()
		if tq.deficit < head.Cost {
			// This tenant's turn is over; its deficit persists, so
			// heavy requests accumulate credit across rounds.
			q.cur++
			q.fresh = true
			continue
		}
		w := tq.pop()
		q.size--
		if tq.len() == 0 {
			q.deactivate(q.cur)
		}
		sojourn := now - w.EnqueuedAt
		if !tq.codel.Admit(now, sojourn) {
			if q.metrics != nil {
				q.metrics.RecordShed(tq.tenant, admission.ReasonCoDel)
			}
			if w.Drop != nil {
				w.Drop(sojourn)
			}
			continue
		}
		tq.deficit -= w.Cost
		return w
	}
	return nil
}

// deactivate removes the ring entry at index i (its tenant queue emptied).
// An empty queue forfeits its remaining deficit — the standard DRR rule that
// keeps idle tenants from banking credit.
func (q *wdrrQueue) deactivate(i int) {
	tq := q.ring[i]
	tq.active = false
	tq.deficit = 0
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.cur > i {
		q.cur--
	} else if q.cur == i {
		// The cursor now points at the next queue in the ring.
		q.fresh = true
	}
}
