package telemetry

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"canalmesh/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if c.Value() != 3.5 {
		t.Errorf("Value = %v, want 3.5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on decrement")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("Value = %v, want 3", g.Value())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100}}
	for _, tc := range tests {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", s.Mean())
	}
	if s.Max() != 100 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestSampleInterleavedObserve(t *testing.T) {
	var s Sample
	s.Observe(10)
	_ = s.Percentile(50) // force sort
	s.Observe(1)         // must invalidate sorted state
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 after late observe = %v, want 1", got)
	}
}

func TestSampleEmptyAndReset(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty sample should return 0")
	}
	s.Observe(7)
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset should clear")
	}
}

func TestSampleDurations(t *testing.T) {
	var s Sample
	s.ObserveDuration(100 * time.Millisecond)
	if got := s.PercentileDuration(50); got != 100*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
}

func TestSeriesWindowAndLast(t *testing.T) {
	s := NewSeries("rps")
	for i := 0; i <= 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i*10))
	}
	w := s.Window(3*time.Second, 6*time.Second)
	if len(w) != 3 || w[0].V != 30 || w[2].V != 50 {
		t.Errorf("Window = %v", w)
	}
	if s.Last().V != 100 {
		t.Errorf("Last = %v", s.Last())
	}
	if got := s.Values(0, 2*time.Second); len(got) != 2 || got[1] != 10 {
		t.Errorf("Values = %v", got)
	}
	if s.Name() != "rps" || s.Len() != 11 {
		t.Error("Name/Len wrong")
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	s := NewSeries("x")
	s.Append(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for backwards time")
		}
	}()
	s.Append(0, 2)
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{10, 8, 6, 4, 2}
	if c := Correlation(a, up); math.Abs(c-1) > 1e-9 {
		t.Errorf("corr(up) = %v, want 1", c)
	}
	if c := Correlation(a, down); math.Abs(c+1) > 1e-9 {
		t.Errorf("corr(down) = %v, want -1", c)
	}
	if c := Correlation(a, []float64{3, 3, 3, 3, 3}); c != 0 {
		t.Errorf("corr(const) = %v, want 0", c)
	}
	if c := Correlation(a, []float64{1}); c != 0 {
		t.Errorf("corr(mismatched) = %v, want 0", c)
	}
}

func TestCorrelationSymmetryProperty(t *testing.T) {
	f := func(xs [8]int16, ys [8]int16) bool {
		a, b := make([]float64, 8), make([]float64, 8)
		for i := range xs {
			a[i], b[i] = float64(xs[i]), float64(ys[i])
		}
		c1, c2 := Correlation(a, b), Correlation(b, a)
		return math.Abs(c1-c2) < 1e-9 && c1 >= -1.0000001 && c1 <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessLog(t *testing.T) {
	var l AccessLog
	l.Log(AccessEntry{Layer: AccessL4, Where: "node1", Tenant: "t1", Service: "web", Latency: time.Millisecond})
	l.Log(AccessEntry{Layer: AccessL7, Where: "gw", Tenant: "t1", Service: "web", Method: "GET", Path: "/", Status: 200})
	l.Log(AccessEntry{Layer: AccessL7, Where: "gw", Tenant: "t1", Service: "web", Method: "GET", Path: "/x", Status: 503})
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if n := l.CountStatus(503); n != 1 {
		t.Errorf("CountStatus(503) = %d", n)
	}
	entries := l.Entries()
	if entries[0].String() == "" || entries[1].String() == "" {
		t.Error("String should render")
	}
}

func TestAccessLogRing(t *testing.T) {
	var l AccessLog
	l.SetCapacity(3)
	for i := 0; i < 7; i++ {
		l.Log(AccessEntry{Layer: AccessL7, Where: "gw", Path: "/", Status: 200 + i})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", l.Len())
	}
	if l.Dropped() != 4 {
		t.Errorf("Dropped = %d, want 4", l.Dropped())
	}
	entries := l.Entries()
	for i, e := range entries {
		if want := 204 + i; e.Status != want {
			t.Errorf("entry %d status = %d, want %d (oldest-first of the newest 3)", i, e.Status, want)
		}
	}
	if n := l.CountStatus(206); n != 1 {
		t.Errorf("CountStatus(206) = %d after wrap", n)
	}
	// Shrinking an already-wrapped log keeps the newest entries.
	l.SetCapacity(2)
	entries = l.Entries()
	if len(entries) != 2 || entries[0].Status != 205 || entries[1].Status != 206 {
		t.Errorf("after shrink: %+v", entries)
	}
	// Restoring unbounded growth keeps appending past the old cap.
	l.SetCapacity(0)
	for i := 0; i < 5; i++ {
		l.Log(AccessEntry{Layer: AccessL7, Status: 300 + i})
	}
	if l.Len() != 7 {
		t.Errorf("unbounded Len = %d, want 7", l.Len())
	}
}

func TestAccessLogTraceJoin(t *testing.T) {
	var l AccessLog
	l.Log(AccessEntry{Layer: AccessL7, Path: "/a", Status: 200, TraceID: "aabb"})
	l.Log(AccessEntry{Layer: AccessL7, Path: "/b", Status: 200, TraceID: "ccdd"})
	l.Log(AccessEntry{Layer: AccessL4, TraceID: "aabb"})
	got := l.FindTrace("aabb")
	if len(got) != 2 || got[0].Path != "/a" || got[1].Layer != AccessL4 {
		t.Fatalf("FindTrace = %+v", got)
	}
	if l.FindTrace("") != nil {
		t.Error("empty trace id should match nothing")
	}
	if s := got[0].String(); !strings.Contains(s, "trace=aabb") {
		t.Errorf("String lacks trace id: %s", s)
	}
}

func TestFullMeshProber(t *testing.T) {
	instances := []ProbeInstance{
		{ID: "a", AZ: "az1", Proto: ProtoHTTP},
		{ID: "b", AZ: "az1", Proto: ProtoHTTPS},
		{ID: "c", AZ: "az2", Proto: ProtoGRPC},
	}
	failDst := ""
	p := NewFullMeshProber(instances, func(src, dst ProbeInstance) (time.Duration, bool) {
		return time.Millisecond, dst.ID != failDst
	})
	p.RunOnce(0)
	if got := len(p.Results()); got != 6 { // 3*2 ordered pairs
		t.Fatalf("results = %d, want 6", got)
	}
	if !p.InnocenceProven() {
		t.Error("all probes OK: innocence should be proven")
	}
	failDst = "c"
	p.RunOnce(time.Second)
	if p.InnocenceProven() {
		t.Error("failed probes: innocence must not be proven")
	}
	if got := len(p.Failures()); got != 2 { // a->c and b->c
		t.Errorf("failures = %d, want 2", got)
	}
}

func TestFullMeshProberScheduled(t *testing.T) {
	s := sim.New(1)
	p := NewFullMeshProber([]ProbeInstance{{ID: "a"}, {ID: "b"}}, func(src, dst ProbeInstance) (time.Duration, bool) {
		return time.Millisecond, true
	})
	rounds := 0
	p.Start(s, time.Minute, func() bool { rounds++; return rounds > 3 })
	s.Run()
	if got := len(p.Results()); got != 6 { // 3 rounds * 2 pairs
		t.Errorf("results = %d, want 6", got)
	}
}

func TestFullMeshProberEmptyNotProven(t *testing.T) {
	p := NewFullMeshProber(nil, nil)
	if p.InnocenceProven() {
		t.Error("no probes should mean no proof")
	}
}
