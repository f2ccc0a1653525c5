package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.At(1*time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.After(time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 3*time.Second {
		t.Errorf("nested event at %v, want 3s", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(time.Millisecond, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(time.Second, func() { ran++ })
	s.At(2*time.Second, func() { ran++ })
	s.At(5*time.Second, func() { ran++ })
	s.RunUntil(3 * time.Second)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.Run()
	if ran != 3 {
		t.Errorf("after Run, ran = %d, want 3", ran)
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(time.Second, func() { ran++; s.Halt() })
	s.At(2*time.Second, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 after Halt", ran)
	}
	s.Run() // resume
	if ran != 2 {
		t.Errorf("ran = %d, want 2 after resume", ran)
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Every(time.Second, func() bool {
		ticks++
		return ticks < 5
	})
	s.Run()
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		s.Every(time.Millisecond, func() bool {
			vals = append(vals, s.Rand().Int63n(1000))
			return len(vals) < 20
		})
		s.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcessorSingleCoreQueueing(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	var ends []time.Duration
	completed := 0
	s.At(0, func() {
		// Three jobs of 10ms submitted at once on one core: they serialize.
		for i := 0; i < 3; i++ {
			end := p.Exec(10*time.Millisecond, func() { completed++ })
			ends = append(ends, end)
		}
	})
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d end = %v, want %v", i, ends[i], want[i])
		}
	}
	if completed != 3 {
		t.Errorf("completed = %d, want 3", completed)
	}
}

func TestProcessorMultiCoreParallelism(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 2)
	var ends []time.Duration
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			ends = append(ends, p.Exec(10*time.Millisecond, nil))
		}
	})
	s.Run()
	// Two cores: pairs run in parallel.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d end = %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestProcessorQueueDelay(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	s.At(0, func() {
		p.Exec(50*time.Millisecond, nil)
		if d := p.QueueDelay(); d != 50*time.Millisecond {
			t.Errorf("QueueDelay = %v, want 50ms", d)
		}
	})
	s.Run()
	if d := p.QueueDelay(); d != 0 {
		t.Errorf("QueueDelay after drain = %v, want 0", d)
	}
}

func TestProcessorUtilization(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 2)
	s.At(0, func() {
		// 500ms of work on one of two cores in the first second: 25% util.
		p.Exec(500*time.Millisecond, nil)
	})
	s.Run()
	if u := p.Utilization(0); u != 0.25 {
		t.Errorf("Utilization(0) = %v, want 0.25", u)
	}
	if u := p.Utilization(2 * time.Second); u != 0 {
		t.Errorf("Utilization(2s) = %v, want 0", u)
	}
}

func TestProcessorUtilizationSpansBuckets(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	s.At(500*time.Millisecond, func() {
		p.Exec(time.Second, nil) // busy 0.5s..1.5s
	})
	s.Run()
	if u := p.Utilization(0); u != 0.5 {
		t.Errorf("bucket 0 util = %v, want 0.5", u)
	}
	if u := p.Utilization(time.Second); u != 0.5 {
		t.Errorf("bucket 1 util = %v, want 0.5", u)
	}
	if u := p.UtilizationRange(0, 2*time.Second); u != 0.5 {
		t.Errorf("range util = %v, want 0.5", u)
	}
}

func TestProcessorSaturationProducesQueueGrowth(t *testing.T) {
	// Offered load 2x capacity: completion latency of the Nth job grows
	// linearly — the mechanism behind the paper's latency spikes (Fig 2).
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	var last time.Duration
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			last = p.Exec(2*time.Millisecond, nil)
		}
	})
	s.Run()
	if last != 200*time.Millisecond {
		t.Errorf("last completion = %v, want 200ms", last)
	}
}

func TestProcessorAddCores(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	var ends []time.Duration
	s.At(0, func() {
		p.AddCores(1)
		for i := 0; i < 2; i++ {
			ends = append(ends, p.Exec(10*time.Millisecond, nil))
		}
	})
	s.Run()
	if ends[0] != ends[1] {
		t.Errorf("jobs should run in parallel after AddCores: %v", ends)
	}
}

func TestProcessorCallbackRunsAtCompletion(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	var at time.Duration
	s.At(0, func() {
		p.Exec(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 7*time.Millisecond {
		t.Errorf("callback at %v, want 7ms", at)
	}
}
