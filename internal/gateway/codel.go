package gateway

import (
	"math"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/units"
)

// coDel implements the controlled-delay AQM state machine (Nichols &
// Jacobson, ACM Queue 2012) over request sojourn times. The caller consults
// Admit once per dequeued request; CoDel tracks how long sojourn has stayed
// above Target and, once it has for a full Interval, enters a dropping state
// that sheds with an interval/sqrt(count) cadence until the queue drains
// below Target again. Bursts shorter than Interval pass untouched; only
// standing queues are policed.
//
// All state is driven by explicit virtual-time instants, so the same
// implementation runs under the simulator and the wall clock. CoDel is not
// safe for concurrent use; its owner (one tenant queue on one replica)
// serializes access.
type coDel struct {
	// Target is the acceptable standing sojourn time.
	Target time.Duration
	// Interval is the window sojourn must exceed Target before dropping
	// starts — on the order of a worst-case RTT.
	Interval time.Duration

	dropping   bool
	count      int           // drops since entering the dropping state
	dropNext   time.Duration // next scheduled drop while dropping
	firstAbove time.Duration // when sojourn first stayed above Target (0 = not above)
}

// newCoDel returns a coDel with the given parameters (the admission
// package defaults for non-positive values).
func newCoDel(target, interval time.Duration) *coDel {
	if target <= 0 {
		target = admission.DefaultTarget
	}
	if interval <= 0 {
		interval = admission.DefaultInterval
	}
	return &coDel{Target: target, Interval: interval}
}

// Dropping reports whether CoDel is currently in its dropping state.
func (c *coDel) Dropping() bool { return c.dropping }

// Admit decides the fate of a request dequeued at now after waiting sojourn:
// true delivers it, false sheds it.
func (c *coDel) Admit(now, sojourn time.Duration) bool {
	okToDrop := c.shouldDrop(now, sojourn)
	if c.dropping {
		if !okToDrop {
			// Sojourn came back under Target: leave the dropping state.
			c.dropping = false
			return true
		}
		if now >= c.dropNext {
			c.count++
			c.dropNext = c.controlLaw(c.dropNext)
			return false
		}
		return true
	}
	if okToDrop {
		// Entering the dropping state. If we were dropping recently,
		// resume from a decayed count so the drop rate picks up near
		// where it left off instead of relearning from scratch.
		c.dropping = true
		if now-c.dropNext < c.Interval && c.count > 2 {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
		return false
	}
	return true
}

// shouldDrop tracks whether sojourn has continuously exceeded Target for a
// full Interval.
func (c *coDel) shouldDrop(now, sojourn time.Duration) bool {
	if sojourn < c.Target {
		c.firstAbove = 0
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.Interval
		return false
	}
	return now >= c.firstAbove
}

// controlLaw schedules the next drop: the inter-drop gap shrinks with the
// square root of the drop count, CoDel's signature sqrt control law.
func (c *coDel) controlLaw(t time.Duration) time.Duration {
	return t + units.Div(c.Interval, math.Sqrt(float64(c.count)))
}
