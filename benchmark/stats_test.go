package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	// 1000 samples leave exactly 10 beyond p99 and 1 beyond p99.9.
	if got := samplesBeyond(1000, 99); got != 10 {
		t.Errorf("samplesBeyond(1000, 99) = %d, want 10", got)
	}
	if !supported(1000, 99) || supported(999, 99) {
		t.Error("p99 must be supported by 1000 samples and not by 999")
	}
	if supported(1000, 99.9) || !supported(10000, 99.9) {
		t.Error("p99.9 must need 10000 samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSummarize(t *testing.T) {
	// 2000 requests over 2 s: 98% at 100 µs, 2% at 1 ms.
	tm := timing{elapsed: 2}
	for i := 0; i < 2000; i++ {
		dur := 100e3
		if i%50 == 0 {
			dur = 1e6
		}
		tm.samples = append(tm.samples, sample{dur: dur, ops: 1})
	}
	sum := summarize(tm)
	if sum.samples != 2000 || sum.beyondP99 != 20 {
		t.Errorf("%d samples, %d beyond the p99; want 2000 and 20", sum.samples, sum.beyondP99)
	}
	if sum.p50us != 100 || sum.p99us != 1000 || sum.opsPerSec != 1000 {
		t.Errorf("p50 %v µs, p99 %v µs, %v ops/s; want 100, 1000 and 1000", sum.p50us, sum.p99us, sum.opsPerSec)
	}
	if sum.p999us != 0 {
		t.Errorf("p99.9 %v µs from 2000 samples, want 0: only 2 lie beyond it", sum.p999us)
	}
}

func TestSummarizeBatches(t *testing.T) {
	// A batch of 64 operations in 64 µs is 1 µs per operation.
	sum := summarize(timing{samples: []sample{{dur: 64e3, ops: 64}}, elapsed: 1})
	if sum.p50us != 1 || sum.p99us != 1 || sum.opsPerSec != 64 {
		t.Errorf("%+v; want p50 = p99 = 1 µs and 64 ops/s", sum)
	}
}

// The self-check compares two readings either way round and never passes a
// metric that is missing or zero.
func TestApart(t *testing.T) {
	if a, b := apart(100, 140), apart(140, 100); a != b || a < 0.399 || a > 0.401 {
		t.Errorf("apart(100, 140) = %v, apart(140, 100) = %v; want 0.4 both ways", a, b)
	}
	if d := apart(0, 5); d <= 1e9 {
		t.Errorf("apart(0, 5) = %v, want infinity", d)
	}
}
