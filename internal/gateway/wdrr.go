package gateway

import (
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/sim"
	"canalmesh/internal/units"
)

// tenantQueue is one tenant's FIFO at one replica, with its WDRR deficit.
// items is a sliding-window slice: head indexes the front so pops are O(1)
// without reallocating.
type tenantQueue struct {
	items   []*sim.Work
	head    int
	deficit time.Duration
	weight  float64
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

// wdrrQueue is a weighted deficit-round-robin scheduler over per-tenant
// FIFOs. It implements sim.QueueDiscipline, so a gateway replica's Processor
// consults it whenever all cores are busy: one tenant's flash crowd piles up
// in that tenant's own queue while other tenants' requests keep flowing at
// their weighted share of the CPU. It only orders work; the per-service
// limiter in Dispatch is where the gateway sheds.
//
// wdrrQueue is not safe for concurrent use; in the simulator a single event loop
// owns it, and each instance belongs to exactly one replica.
type wdrrQueue struct {
	cfg    admission.Config
	byName map[string]*tenantQueue
	ring   []*tenantQueue // active tenant queues, round-robin order
	cur    int            // ring index currently being served
	fresh  bool           // true when cur just arrived at a queue (owed its quantum)
	size   int
}

// newWDRRQueue returns a WDRR queue with the given config.
func newWDRRQueue(cfg admission.Config) *wdrrQueue {
	return &wdrrQueue{
		cfg:    cfg.WithDefaults(),
		byName: make(map[string]*tenantQueue),
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

// Enqueue implements sim.QueueDiscipline: the work joins its tenant's FIFO.
func (q *wdrrQueue) Enqueue(w *sim.Work) {
	name := q.key(w.Tenant)
	tq, ok := q.byName[name]
	if !ok {
		tq = &tenantQueue{weight: q.cfg.Weight(name)}
		q.byName[name] = tq
	}
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
}

// Dequeue implements sim.QueueDiscipline: deficit round-robin across active
// tenants (Shreedhar & Varghese: a queue's deficit is topped up exactly once
// per visit, and the cursor moves on when the deficit can't cover the head).
func (q *wdrrQueue) Dequeue() *sim.Work {
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
		tq.deficit -= w.Cost
		if tq.len() == 0 {
			q.deactivate(q.cur)
		}
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
