package sim

import (
	"testing"
	"time"
)

func TestTimeDurationRoundTrip(t *testing.T) {
	d := 98765 * time.Microsecond
	if got := FromDuration(d).Duration(); got != d {
		t.Errorf("round trip = %v, want %v", got, d)
	}
}
