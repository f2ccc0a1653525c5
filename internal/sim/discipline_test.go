package sim

import (
	"testing"
	"time"
)

// fifoDisc is a minimal FIFO QueueDiscipline for testing the processor's
// Submit/drain plumbing in isolation from any real policy. enqueued, when
// set, sees each item as it joins the queue, and dequeued each item as it
// leaves for a core.
type fifoDisc struct {
	items    []*Work
	enqueued func(*Work)
	dequeued func(*Work)
}

func (d *fifoDisc) Enqueue(w *Work) {
	if d.enqueued != nil {
		d.enqueued(w)
	}
	d.items = append(d.items, w)
}

func (d *fifoDisc) Dequeue() *Work {
	if len(d.items) == 0 {
		return nil
	}
	w := d.items[0]
	d.items = d.items[1:]
	if d.dequeued != nil {
		d.dequeued(w)
	}
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
	d := &fifoDisc{}
	p.SetDiscipline(d)
	var ends []time.Duration
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			p.Submit(&Work{Cost: 10 * time.Millisecond, Do: func() { ends = append(ends, s.Now()) }})
		}
		if got := d.Len(); got != 2 {
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
	if d.Len() != 0 {
		t.Errorf("queue not drained: %d left", d.Len())
	}
}

// TestSubmitAtCompletionWaitsBehindQueue submits work at the instant a core
// frees, before that core's completion has run: the core is free, but work
// already waiting in the discipline goes first.
func TestSubmitAtCompletionWaitsBehindQueue(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{})
	var order []string
	submit := func(name string) {
		p.Submit(&Work{Cost: 10 * time.Millisecond, Do: func() { order = append(order, name) }})
	}
	// Scheduled first, so it runs before the completion event at 10 ms.
	s.At(10*time.Millisecond, func() { submit("late") })
	s.At(0, func() {
		submit("a")
		submit("b")
		submit("c")
	})
	s.Run()
	want := []string{"a", "b", "c", "late"}
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions %v, want %v", order, want)
		}
	}
}

func TestExecPanicsWithDiscipline(t *testing.T) {
	s := New(1)
	p := NewProcessor(s, "cpu", 1)
	p.SetDiscipline(&fifoDisc{})
	defer func() {
		if recover() == nil {
			t.Fatal("Exec on a processor with a discipline did not panic")
		}
	}()
	p.Exec(time.Millisecond, nil)
}

// FuzzProcessorDiscipline drives a processor with a FIFO discipline through
// random core counts, tenants, costs on a microsecond grid and arrival
// instants, so arrivals often land on completion instants: some are
// scheduled before the completions of their instant, some are submitted
// from inside a completion. It checks that every Work completes exactly
// once, Cost after it started; that no core stays idle while the discipline
// holds work, and no more work runs at once than there are cores; and that
// work starts in the order the discipline hands it out, which for a FIFO is
// the order of submission.
func FuzzProcessorDiscipline(f *testing.F) {
	f.Add(uint8(0), []byte{0, 10, 0, 1, 10, 0, 2, 10, 10})
	f.Add(uint8(1), []byte{0, 3, 0, 1, 3, 0, 0, 3, 0, 2, 2, 3, 1, 1, 0xc0, 0, 4, 6})
	f.Add(uint8(2), []byte{0, 0, 0, 1, 5, 5, 2, 5, 5, 0, 7, 0xd0, 1, 2, 10, 2, 0, 12})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, cores uint8, data []byte) {
		s := New(1)
		p := NewProcessor(s, "cpu", 1+int(cores%4))
		type item struct {
			w       Work
			seq     int
			queued  bool
			startAt time.Duration
			done    int
		}
		var (
			items     []*item
			byWork    = map[*Work]*item{}
			nextStart int
			running   []*item // started work whose Cost has not yet elapsed
			followUps []*item // submitted from inside the next completion
		)
		d := &fifoDisc{}
		idleCheck := func(where string) {
			if d.Len() == 0 {
				return
			}
			now := s.Now()
			for i, c := range p.cores {
				if c < now {
					t.Fatalf("%s at %v: core %d idle since %v while %d items wait", where, now, i, c, d.Len())
				}
			}
		}
		start := func(it *item) {
			if it.seq != nextStart {
				t.Fatalf("work %d started at %v, but work %d was submitted before it and has not started", it.seq, s.Now(), nextStart)
			}
			nextStart++
			it.startAt = s.Now()
			live := running[:0]
			for _, o := range append(running, it) {
				if o.startAt+o.w.Cost > s.Now() {
					live = append(live, o)
				}
			}
			if running = live; len(running) > p.Cores() {
				t.Fatalf("%d works running at %v on %d cores", len(running), s.Now(), p.Cores())
			}
		}
		d.enqueued = func(w *Work) { byWork[w].queued = true }
		d.dequeued = func(w *Work) { start(byWork[w]) }
		p.SetDiscipline(d)
		var submit func(it *item)
		submit = func(it *item) {
			it.seq = len(items)
			items = append(items, it)
			p.Submit(&it.w)
			if !it.queued {
				start(it)
			}
			idleCheck("submit")
		}
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		for i := 0; i+2 < len(data); i += 3 {
			it := &item{}
			it.w = Work{
				Tenant: string(rune('a' + data[i]%3)),
				Cost:   time.Duration(data[i+1]%8) * time.Microsecond,
			}
			it.w.Do = func() {
				it.done++
				if it.done != 1 {
					t.Fatalf("work %d completed %d times", it.seq, it.done)
				}
				if want := it.startAt + it.w.Cost; s.Now() != want {
					t.Fatalf("work %d completed at %v, want %v", it.seq, s.Now(), want)
				}
				idleCheck("completion")
				for len(followUps) > 0 {
					next := followUps[0]
					followUps = followUps[1:]
					submit(next)
				}
			}
			byWork[&it.w] = it
			if a := data[i+2]; a >= 0xc0 {
				followUps = append(followUps, it)
			} else {
				s.At(time.Duration(a%48)*time.Microsecond, func() { submit(it) })
			}
		}
		s.Run()
		for _, it := range items {
			if it.done != 1 {
				t.Fatalf("work %d completed %d times", it.seq, it.done)
			}
		}
		if d.Len() != 0 {
			t.Fatalf("%d items left in the discipline", d.Len())
		}
	})
}
