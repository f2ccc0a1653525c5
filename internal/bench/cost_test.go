package bench

import "testing"

func TestVMsForSessions(t *testing.T) {
	// 900k sessions at 100k/VM: 9 VMs for sessions even if CPU needs 2.
	if got := vmsForSessions(900_000, 100_000, 2); got != 9 {
		t.Errorf("VMs = %d, want 9", got)
	}
	// After aggregation sessions collapse, but the CPU floor holds: the
	// Table 5 caveat that savings are not proportional.
	if got := vmsForSessions(40, 100_000, 2); got != 2 {
		t.Errorf("VMs = %d, want CPU floor 2", got)
	}
	if got := vmsForSessions(0, 100_000, 0); got != 1 {
		t.Errorf("VMs = %d, want minimum 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero capacity")
		}
	}()
	vmsForSessions(1, 0, 1)
}
