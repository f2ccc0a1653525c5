package main

import (
	"testing"
	"time"
)

var routeSpec = worldSpec{tenants: 4, services: 3, authzRules: 20, routeRules: 12, zipf: 1.1, deniedShare: 0.05}

func TestSameSeedSameStream(t *testing.T) {
	_, a := genWorld(42, routeSpec, 3000)
	_, b := genWorld(42, routeSpec, 3000)
	_, c := genWorld(43, routeSpec, 3000)
	if streamHash(a) != streamHash(b) {
		t.Error("the same seed gave two different request streams")
	}
	if streamHash(a) == streamHash(c) {
		t.Error("two seeds gave the same request stream")
	}
}

func TestStreamMix(t *testing.T) {
	spec := worldSpec{tenants: 2, services: 2, authzRules: 20, routeRules: 8, mirrorRule: true, postShare: 0.2, mirrorShare: 0.1}
	services, specs := genWorld(1, spec, 20000)
	if got := len(services[0][0].cfg.Authz); got != 20 {
		t.Errorf("generated %d authz rules, want 20", got)
	}
	var posts, mirrors int
	for _, sp := range specs {
		if sp.method == "POST" {
			posts++
			if sp.bodyLen != postBody || sp.replyLen != postReply {
				t.Fatalf("POST with body %d reply %d", sp.bodyLen, sp.replyLen)
			}
		}
		if sp.mirrored {
			mirrors++
			if sp.wantScanned != 1 || sp.wantRule != "r0" {
				t.Fatalf("mirrored request expects rule %q after %d comparisons", sp.wantRule, sp.wantScanned)
			}
		}
	}
	if posts < 3600 || posts > 4400 || mirrors < 1700 || mirrors > 2300 {
		t.Errorf("%d POSTs and %d mirrored of 20000, want about 4000 and 2000", posts, mirrors)
	}
}

func TestTraceparentCarriesRequestID(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, 1<<63 + 5} {
		tp := traceparent([8]byte{0x80}, id)
		got, ok := requestID(tp)
		if !ok || got != id {
			t.Errorf("traceparent %q gives request %d (%v), want %d", tp, got, ok, id)
		}
	}
	if _, ok := requestID("00-short"); ok {
		t.Error("a malformed traceparent must not yield a request ID")
	}
}

// The open loop's schedule is absolute: request n is due n intervals after
// the start however late earlier requests were sent, and waiting for a due
// time never returns early.
func TestOpenLoopScheduleAndLateness(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	sleepUntil := func(at time.Time) {
		if err := p.sleepUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	interval := 2 * time.Millisecond
	for n := uint64(0); n < 5; n++ {
		due := start.Add(time.Duration(n) * interval)
		sleepUntil(due)
		late := time.Since(due)
		if late < 0 {
			t.Fatalf("request %d sent %v before it was due", n, -late)
		}
		if late > 500*time.Millisecond {
			t.Fatalf("request %d sent %v late", n, late)
		}
	}
	past := time.Now().Add(-time.Second)
	t0 := time.Now()
	sleepUntil(past)
	if time.Since(t0) > 100*time.Millisecond {
		t.Error("waiting for a time already past must return at once")
	}
}
