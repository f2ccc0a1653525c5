package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTracerRecycleCopiesStable takes Kept and Tail from a bounded tracer
// and runs 10^4 further traces through it, every one evicting a kept trace
// for the next start to refill: the copies taken before must still encode
// to the same bytes, and the tracer must really have been refilling.
func TestTracerRecycleCopiesStable(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 9, Clock: clock, KeptCap: 32})
	// Every other trace joins an unsampled remote context, and every
	// fourth, one of those, fails: a quarter of the traces go to the tail.
	run := func(i int) *Trace {
		id := TraceID{1, byte(i >> 8), byte(i)}
		tt := tr.StartRemoteTenant(id, SpanID{1}, i%2 == 1, "gateway", fmt.Sprintf("tenant-%d", i%7), fmt.Sprintf("GET /%d", i))
		for h := 0; h <= i%3; h++ {
			advance(time.Microsecond)
			tt.AddHop(Hop{Name: fmt.Sprintf("hop-%d", h), Start: clock(), End: clock() + time.Microsecond, CPU: time.Microsecond})
		}
		status := 200
		if i%4 == 0 {
			status = 503
		}
		tr.Finish(tt, status)
		return tt
	}
	for i := 0; i < 200; i++ {
		run(i)
	}
	kept, tail := tr.Kept(), tr.Tail()
	if len(kept) != 32 || len(tail) != 50 {
		t.Fatalf("kept %d tail %d traces, want 32 and 50", len(kept), len(tail))
	}
	taken := append(append([]*Trace(nil), kept...), tail...)
	encode := func() [][]byte {
		out := make([][]byte, len(taken))
		for i, tt := range taken {
			b, err := json.Marshal(tt)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	before := encode()

	handedOut := make(map[*Trace]bool)
	for i := 200; i < 200+10_000; i++ {
		handedOut[run(i)] = true
	}
	for i, b := range encode() {
		if !bytes.Equal(before[i], b) {
			t.Errorf("copy %d of %d taken from Kept and Tail changed while the tracer ran on:\nbefore %s\nafter  %s", i, len(taken), before[i], b)
			break
		}
	}
	// The unsampled traces that Finish drops are garbage, not recycled, so
	// only the sampled half come back: about 5 000 starts out of 10^4 draw
	// on a bounded set of evicted traces.
	if len(handedOut) > 6_000 {
		t.Errorf("%d distinct traces for 10^4 starts: evicted traces are not being refilled", len(handedOut))
	}
	for _, k := range tr.Kept() {
		for _, old := range kept {
			if k == old {
				t.Fatal("Kept returned a trace it returned before: not a copy")
			}
		}
	}
}

// TestTracerRecycleConcurrent runs Start, AddHop and Finish on 8 goroutines
// against one small bounded tracer, so traces are evicted and refilled
// across goroutines all the time, beside a reader taking Kept and Tail.
// Every goroutine checks that the trace it holds is its own until it
// finishes it; -race checks the hand-over between Finish and Start.
func TestTracerRecycleConcurrent(t *testing.T) {
	tr := New(Config{Seed: 4, Clock: func() time.Duration { return 0 }, KeptCap: 8})
	const goroutines, rounds = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range tr.Kept() {
				if len(k.Spans) != 2 || k.Spans[1].Parent != k.Spans[0].ID || k.Name != k.Spans[0].Name {
					t.Errorf("Kept returned a torn trace: %+v", k)
					return
				}
			}
			tr.Tail()
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant, name := fmt.Sprintf("tenant-%d", g), fmt.Sprintf("GET /%d", g)
			for i := 0; i < rounds; i++ {
				tt := tr.StartTenant("gateway", tenant, name)
				hop := tt.AddHop(Hop{Name: name})
				if tt.Tenant != tenant || tt.Name != name || len(tt.Spans) != 2 ||
					tt.Spans[0].Name != name || tt.Spans[1].ID != hop || tt.Spans[1].Name != name {
					t.Errorf("goroutine %d holds a trace that is not its own: %+v", g, tt)
					return
				}
				tr.Finish(tt, 200+g)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if got := tr.Started(); got != goroutines*rounds {
		t.Errorf("Started = %d, want %d", got, goroutines*rounds)
	}
}

// TestTracerRecycleDoubleFinish finishes one trace twice on a two-slot
// bounded tracer. The second Finish must change nothing: the trace is kept
// once, so it is evicted, and refilled, once. A trace on the free list
// twice would be handed to two Starts at the same time.
func TestTracerRecycleDoubleFinish(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 2, Clock: clock, KeptCap: 2})
	twice := tr.Start("gateway", "GET /twice")
	advance(time.Millisecond)
	tr.Finish(twice, 200)
	advance(time.Millisecond)
	tr.Finish(twice, 500)
	if kept := tr.Kept(); len(kept) != 1 || kept[0].Status != 200 || kept[0].Total() != time.Millisecond {
		t.Fatalf("after a double Finish, Kept = %+v; want the one trace as first finished", kept)
	}
	for i := 0; i < 4; i++ {
		tr.Finish(tr.Start("gateway", "GET /"), 200)
	}
	open := make(map[*Trace]bool)
	for i := 0; i < 8; i++ {
		tt := tr.Start("gateway", "GET /open")
		if open[tt] {
			t.Fatalf("start %d handed out a trace already in use", i)
		}
		open[tt] = true
	}
}
