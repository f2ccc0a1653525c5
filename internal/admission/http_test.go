package admission

import (
	"testing"
	"time"
)

// TestHTTPControllerAdmitReleaseHoldsNoSamples is the regression test for
// the per-request leak on the live path: an admitted request used to append
// a constant zero sojourn to the tenant's unbounded Sample on release. The
// live path has no queue, so cycles must count Admitted and retain nothing.
func TestHTTPControllerAdmitReleaseHoldsNoSamples(t *testing.T) {
	var now time.Duration
	c := newHTTPController(Config{}, func() time.Duration { return now })
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		release, rej := c.Admit("acme", "web", false)
		if rej != nil {
			t.Fatalf("cycle %d: %v", i, rej)
		}
		now += time.Millisecond
		release(true)
	}
	tm := c.Metrics().Tenant("acme")
	if got := tm.Admitted.Value(); got != cycles {
		t.Errorf("Admitted = %v, want %d", got, cycles)
	}
	if got := tm.Sojourn.Count(); got != 0 {
		t.Errorf("Sojourn holds %d samples after %d admit/release cycles, want 0", got, cycles)
	}
}
