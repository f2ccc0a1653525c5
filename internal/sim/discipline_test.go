package sim

import (
	"testing"
	"time"
)

// fifoDisc is a minimal bounded-FIFO QueueDiscipline for testing the
// processor's Submit/drain plumbing in isolation from any real policy.
type fifoDisc struct {
	items []*Work
	cap   int
}

func (d *fifoDisc) Enqueue(now time.Duration, w *Work) bool {
	if d.cap > 0 && len(d.items) >= d.cap {
		return false
	}
	d.items = append(d.items, w)
	return true
}

func (d *fifoDisc) Dequeue(now time.Duration) *Work {
	if len(d.items) == 0 {
		return nil
	}
	w := d.items[0]
	d.items = d.items[1:]
	return w
}

func (d *fifoDisc) Len() int { return len(d.items) }

func TestSubmitWithoutDisciplineMatchesExec(t *testing.T) {
	// Two identical processors, one driven by Exec and one by Submit with no
	// discipline installed: completions and busy accounting must agree.
	s := New(1)
	pe := NewProcessor(s, "exec", 2)
	ps := NewProcessor(s, "submit", 2)
	var execEnds, submitEnds []time.Duration
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			cost := time.Duration(i+1) * time.Millisecond
			pe.Exec(cost, func() { execEnds = append(execEnds, s.Now()) })
			ps.Submit(&Work{Cost: cost, Do: func() { submitEnds = append(submitEnds, s.Now()) }})
		}
	})
	s.Run()
	if len(execEnds) != 10 || len(submitEnds) != 10 {
		t.Fatalf("completions: exec %d, submit %d, want 10 each", len(execEnds), len(submitEnds))
	}
	for i := range execEnds {
		if execEnds[i] != submitEnds[i] {
			t.Fatalf("completion %d: exec %v, submit %v", i, execEnds[i], submitEnds[i])
		}
	}
	if pe.BusyTotal() != ps.BusyTotal() {
		t.Fatalf("busy time: exec %v, submit %v", pe.BusyTotal(), ps.BusyTotal())
	}
}

func TestSubmitQueuesBehindBusyCores(t *testing.T) {
	// One core, three jobs: the first starts immediately, the rest wait in
	// the discipline and start back-to-back as the core frees.
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{})
	var ends []time.Duration
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			p.Submit(&Work{Cost: 10 * time.Millisecond, Do: func() { ends = append(ends, s.Now()) }})
		}
		if got := p.QueueLen(); got != 2 {
			t.Errorf("queue length after submits = %d, want 2", got)
		}
	})
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(ends) != len(want) {
		t.Fatalf("completions = %d, want %d", len(ends), len(want))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
	if p.QueueLen() != 0 {
		t.Errorf("queue not drained: %d left", p.QueueLen())
	}
}

func TestSubmitRejectionInvokesDrop(t *testing.T) {
	// Capacity-1 discipline on a single busy core: the third submit is
	// rejected at enqueue and its Drop callback fires with zero sojourn.
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{cap: 1})
	var dropped, completed int
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			p.Submit(&Work{
				Cost: time.Millisecond,
				Do:   func() { completed++ },
				Drop: func(sojourn time.Duration) {
					dropped++
					if sojourn != 0 {
						t.Errorf("enqueue rejection sojourn = %v, want 0", sojourn)
					}
				},
			})
		}
	})
	s.Run()
	if dropped != 1 || completed != 2 {
		t.Fatalf("dropped %d completed %d, want 1 and 2", dropped, completed)
	}
}

func TestAddCoresDrainsDiscipline(t *testing.T) {
	// Work queued behind one saturated core starts immediately when new
	// cores arrive — vertical scale-up must not strand queued work.
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{})
	var ends []time.Duration
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			p.Submit(&Work{Cost: 10 * time.Millisecond, Do: func() { ends = append(ends, s.Now()) }})
		}
	})
	s.At(time.Millisecond, func() { p.AddCores(2) })
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 11 * time.Millisecond}
	if len(ends) != 3 {
		t.Fatalf("completions = %d, want 3", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestExecCompletionDrainsDiscipline(t *testing.T) {
	// An Exec between two Submits claims the busy core analytically past the
	// running work's completion, so that completion cannot drain the queue:
	// the Exec's own completion must, or the second item waits forever.
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{})
	var ends []time.Duration
	s.At(0, func() {
		for i := 0; i < 2; i++ {
			p.Submit(&Work{Cost: 10 * time.Microsecond, Do: func() { ends = append(ends, s.Now()) }})
		}
	})
	s.At(5*time.Microsecond, func() { p.Exec(3*time.Microsecond, nil) })
	s.Run()
	want := []time.Duration{10 * time.Microsecond, 23 * time.Microsecond}
	if len(ends) != len(want) {
		t.Fatalf("completions at %v, want %v (%d still queued)", ends, want, p.QueueLen())
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
}
