package trace

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// testClock returns a controllable clock and its advance function.
func testClock() (func() time.Duration, func(time.Duration)) {
	var now time.Duration
	return func() time.Duration { return now }, func(d time.Duration) { now += d }
}

func TestIDGenerationDeterministic(t *testing.T) {
	clock, _ := testClock()
	a := New(Config{Seed: 7, Clock: clock})
	b := New(Config{Seed: 7, Clock: clock})
	for i := 0; i < 50; i++ {
		ta := a.Start("canal", "GET /")
		tb := b.Start("canal", "GET /")
		if ta.ID != tb.ID || ta.Root().ID != tb.Root().ID || ta.Sampled != tb.Sampled {
			t.Fatalf("trace %d diverged: %v/%v vs %v/%v", i, ta.ID, ta.Root().ID, tb.ID, tb.Root().ID)
		}
	}
	c := New(Config{Seed: 8, Clock: clock})
	if c.Start("canal", "GET /").ID == a.Start("canal", "GET /").ID {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestIDsNeverZero(t *testing.T) {
	clock, _ := testClock()
	tr := New(Config{Seed: 1, Clock: clock})
	for i := 0; i < 1000; i++ {
		tt := tr.Start("x", "y")
		if tt.ID.IsZero() || tt.Root().ID.IsZero() {
			t.Fatal("generated a zero ID")
		}
	}
}

func TestHeadSamplingBoundaries(t *testing.T) {
	clock, _ := testClock()
	// Rate 1 (and out-of-range rates) keep everything.
	for _, rate := range []float64{1, 0, -0.5, 1.5} {
		tr := New(Config{Seed: 3, Clock: clock, HeadRate: rate})
		for i := 0; i < 20; i++ {
			tt := tr.Start("a", "r")
			if !tt.Sampled {
				t.Fatalf("rate %v: trace unsampled", rate)
			}
			tr.Finish(tt, 200)
		}
		if len(tr.Kept()) != 20 {
			t.Fatalf("rate %v: kept %d, want 20", rate, len(tr.Kept()))
		}
	}
	// A fractional rate keeps roughly that share, deterministically per seed.
	tr := New(Config{Seed: 3, Clock: clock, HeadRate: 0.25})
	kept := 0
	for i := 0; i < 400; i++ {
		tt := tr.Start("a", "r")
		if tt.Sampled {
			kept++
		}
		tr.Finish(tt, 200)
	}
	if kept == 0 || kept == 400 {
		t.Fatalf("head rate 0.25 kept %d/400", kept)
	}
	if got := len(tr.Kept()); got != kept {
		t.Fatalf("Kept() = %d, want %d", got, kept)
	}
	tr2 := New(Config{Seed: 3, Clock: clock, HeadRate: 0.25})
	kept2 := 0
	for i := 0; i < 400; i++ {
		tt := tr2.Start("a", "r")
		if tt.Sampled {
			kept2++
		}
		tr2.Finish(tt, 200)
	}
	if kept != kept2 {
		t.Fatalf("same-seed sampling diverged: %d vs %d", kept, kept2)
	}
}

func TestKeptRingBoundsRetention(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 5, Clock: clock, KeptCap: 4})
	for i := 0; i < 10; i++ {
		tt := tr.Start("canal", "GET /")
		advance(time.Millisecond)
		tr.Finish(tt, 200+i)
	}
	kept := tr.Kept()
	if len(kept) != 4 {
		t.Fatalf("kept holds %d traces, want capacity 4", len(kept))
	}
	for i, tt := range kept {
		if want := 200 + 6 + i; tt.Status != want {
			t.Fatalf("kept slot %d holds status %d, want %d (oldest-first of the newest 4)", i, tt.Status, want)
		}
	}
}

func TestLiveTracerBoundsKept(t *testing.T) {
	tr := NewLive()
	for i := 0; i < liveKeptCap+10; i++ {
		tr.Finish(tr.Start("gateway", "GET /"), 200)
	}
	if got := len(tr.Kept()); got != liveKeptCap {
		t.Fatalf("live tracer kept %d traces, want bounded at %d", got, liveKeptCap)
	}
}

func TestTailKeepsSlowAndErrored(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 5, Clock: clock, HeadRate: 0.0001, SlowThreshold: 10 * time.Millisecond, TailCap: 8})
	// Fast, successful, unsampled: dropped entirely.
	fast := tr.Start("canal", "GET /")
	advance(time.Millisecond)
	tr.Finish(fast, 200)
	// Slow: tail-kept.
	slow := tr.Start("canal", "GET /slow")
	advance(50 * time.Millisecond)
	tr.Finish(slow, 200)
	// Errored but fast: tail-kept.
	errd := tr.Start("canal", "GET /err")
	advance(time.Millisecond)
	tr.Finish(errd, 503)
	tail := tr.Tail()
	if len(tail) != 2 {
		t.Fatalf("tail holds %d traces, want 2 (slow + errored)", len(tail))
	}
	if tail[0].Name != "GET /slow" || tail[1].Name != "GET /err" {
		t.Fatalf("tail order wrong: %s, %s", tail[0].Name, tail[1].Name)
	}
}

func TestTailRingEviction(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 5, Clock: clock, HeadRate: 0.0001, TailCap: 4})
	for i := 0; i < 10; i++ {
		tt := tr.Start("canal", "e")
		tt.Status = i // tag with creation order via status below
		advance(time.Millisecond)
		tr.Finish(tt, 500+i)
	}
	tail := tr.Tail()
	if len(tail) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(tail))
	}
	for i, tt := range tail {
		if want := 500 + 6 + i; tt.Status != want {
			t.Fatalf("ring slot %d holds status %d, want %d (oldest-first of the newest 4)", i, tt.Status, want)
		}
	}
}

// TestTraceparentRoundTrip is the codec's round-trip property over seeded
// random IDs and both flag values: Traceparent renders the bytes the
// fmt-based renderer it replaced did, ParseTraceparent returns what was
// rendered, and the IDs' String forms are plain lower-case hex.
func TestTraceparentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var id TraceID
		var span SpanID
		rng.Read(id[:])
		rng.Read(span[:])
		sampled := i%2 == 0
		hdr := Traceparent(id, span, sampled)
		flags := 0
		if sampled {
			flags = flagSampled
		}
		if want := fmt.Sprintf("00-%s-%s-%02x", hex.EncodeToString(id[:]), hex.EncodeToString(span[:]), flags); hdr != want {
			t.Fatalf("Traceparent = %q, want %q", hdr, want)
		}
		if id.String() != hdr[3:35] || span.String() != hdr[36:52] {
			t.Fatalf("String forms %s %s differ from the rendered header %q", id, span, hdr)
		}
		gotID, gotSpan, gotSampled, err := ParseTraceparent(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || gotSpan != span || gotSampled != sampled {
			t.Fatalf("round trip of %q lost fields: %v %v %v", hdr, gotID, gotSpan, gotSampled)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	}
	for _, s := range bad {
		if _, _, _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted invalid input", s)
		}
	}
	// A future version with trailing fields parses (forward compatibility).
	if _, _, _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 13, Clock: clock})
	tt := tr.Start("canal", "GET /api")
	advance(time.Millisecond)
	tt.AddHop(Hop{Name: "canal/node-client", Start: clock(), End: clock() + 100*time.Microsecond,
		Queue: 20 * time.Microsecond, CPU: 80 * time.Microsecond, Crypto: 30 * time.Microsecond})
	advance(2 * time.Millisecond)
	tr.Finish(tt, 200)
	raw, err := json.Marshal(tt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(tt.ID.String())) {
		t.Fatalf("JSON lacks hex trace id: %s", raw)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tt.ID || len(back.Spans) != 2 || back.Spans[1].Parent != tt.Root().ID {
		t.Fatalf("round trip mangled trace: %+v", back)
	}
}

// buildTrace makes a two-hop trace with fixed attribution for analyzer tests.
func buildTrace(tr *Tracer, clock func() time.Duration, advance func(time.Duration), arch string) *Trace {
	tt := tr.Start(arch, "GET /")
	h1 := Hop{Name: arch + "/node", Start: clock(), Net: 100 * time.Microsecond,
		Queue: 50 * time.Microsecond, CPU: 200 * time.Microsecond, Crypto: 40 * time.Microsecond}
	advance(h1.Net + h1.Queue + h1.CPU)
	h1.End = clock()
	h1.Start = h1.End - h1.Queue - h1.CPU
	tt.AddHop(h1)
	h2 := Hop{Name: arch + "/gateway", Net: 300 * time.Microsecond,
		Queue: 0, CPU: 500 * time.Microsecond, Crypto: 100 * time.Microsecond}
	advance(h2.Net + h2.Queue + h2.CPU)
	h2.End = clock()
	h2.Start = h2.End - h2.Queue - h2.CPU
	tt.AddHop(h2)
	tr.Finish(tt, 200)
	return tt
}

func TestAnalyzeReconciles(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 17, Clock: clock})
	for i := 0; i < 5; i++ {
		buildTrace(tr, clock, advance, "canal")
	}
	b := Analyze(tr.Kept())
	if b.Arch != "canal" || b.Traces != 5 {
		t.Fatalf("breakdown header wrong: %+v", b)
	}
	if len(b.Hops) != 2 {
		t.Fatalf("hops = %d, want 2", len(b.Hops))
	}
	if b.Hops[0].Name != "canal/node" || b.Hops[1].Name != "canal/gateway" {
		t.Fatalf("hop order wrong: %+v", b.Hops)
	}
	if b.Hops[0].Count != 5 || b.Hops[0].Queue != 5*50*time.Microsecond {
		t.Fatalf("hop aggregation wrong: %+v", b.Hops[0])
	}
	if got, want := b.HopSum(), b.MeanTotal(); got != want {
		t.Fatalf("per-hop sum %v does not reconcile with end-to-end mean %v", got, want)
	}
	if want := 1150 * time.Microsecond; b.MeanTotal() != want {
		t.Fatalf("mean total = %v, want %v", b.MeanTotal(), want)
	}
}

func TestAnalyzeFallsBackToSpanDuration(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 23, Clock: clock})
	// A live-path style hop: only Start/End, no segment attribution.
	tt := tr.Start("gateway", "GET /")
	h := Hop{Name: "gateway/upstream", Start: clock()}
	advance(3 * time.Millisecond)
	h.End = clock()
	tt.AddHop(h)
	tr.Finish(tt, 200)
	b := Analyze(tr.Kept())
	if want := 3 * time.Millisecond; b.Hops[0].Mean() != want {
		t.Fatalf("span-only hop mean = %v, want %v (End-Start attributed as Net)", b.Hops[0].Mean(), want)
	}
	if b.HopSum() != b.MeanTotal() {
		t.Fatalf("per-hop sum %v does not reconcile with mean total %v", b.HopSum(), b.MeanTotal())
	}
}

func TestCriticalPathOrder(t *testing.T) {
	clock, advance := testClock()
	tr := New(Config{Seed: 19, Clock: clock})
	tt := buildTrace(tr, clock, advance, "istio")
	path := CriticalPath(tt)
	if len(path) != 2 || path[0].Name != "istio/node" || path[1].Name != "istio/gateway" {
		t.Fatalf("critical path wrong: %+v", path)
	}
	if path[0].Start > path[1].Start {
		t.Fatal("critical path not ordered by start time")
	}
}
