package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"time"

	"canalmesh/internal/bench"
	"canalmesh/internal/sim"
)

// slow lists the experiments that take most of a serial pass (each more
// than 0.3 s at the commit that added the benchmark). They are left out of
// the reference pass made at set-up and out of scaled-down smoke runs.
var slow = []string{"fig16", "policy", "fig27", "admission", "configpush", "fig5", "fig11", "fig20", "fig2", "fig12"}

// ownMetric lists the experiments whose wall time is a per-layer metric of
// its own; the others are summed into bench.rest_wall_ms.
var ownMetric = append([]string{"fed-evac", "fed-split"}, slow...)

// simSuite is the paper's experiment suite run serially, as canalbench runs
// it. One operation is one pass over the whole suite.
type simSuite struct {
	exps      []bench.Experiment
	reference map[string]string // rendered output of each light experiment
}

// simSetup renders the light experiments once as the reference. The seed is
// not used: the experiments carry their own fixed seeds, and their output is
// the behavioural contract the pass is checked against. A scale below 1
// leaves the slow experiments out, for smoke tests.
func simSetup(_ int64, _, scale float64) (instance, error) {
	s := &simSuite{reference: make(map[string]string)}
	var light []bench.Experiment
	for _, e := range bench.All() {
		switch {
		case !slices.Contains(slow, e.ID):
			light = append(light, e)
			s.exps = append(s.exps, e)
		case scale >= 1:
			s.exps = append(s.exps, e)
		}
	}
	rep := bench.NewRunner(bench.Options{Parallel: 1}).Run(context.Background(), light)
	if failed := rep.Failed(); len(failed) > 0 {
		return nil, fmt.Errorf("reference pass: experiment %s: %w", failed[0].ID, failed[0].Err)
	}
	for _, r := range rep.Results {
		s.reference[r.ID] = r.Rendered
	}
	return s, nil
}

func (s *simSuite) close() {}

// passResult is one checked pass over the suite.
type passResult struct {
	wallNs, cpuNs float64
	wallMs        map[string]float64 // per experiment
	rendered      string
	problems      []string
}

// pass runs the suite once, serially, and checks it: no experiment may fail
// and every light experiment must render exactly its reference.
func (s *simSuite) pass(n int, rec *spanRecorder) passResult {
	out := passResult{wallMs: make(map[string]float64)}
	var start int64
	if rec != nil {
		start = rec.now()
	}
	cpu := cpuNow()
	rep := bench.NewRunner(bench.Options{Parallel: 1}).Run(context.Background(), s.exps)
	out.cpuNs = float64(cpuNow() - cpu)
	out.wallNs = float64(rep.Wall)
	var all strings.Builder
	at := start
	for _, r := range rep.Results {
		out.wallMs[r.ID] = float64(r.Wall) / 1e6
		if rec != nil {
			// The pass is serial, so each experiment starts where the one
			// before it ended.
			rec.add(span{Req: uint64(n), Name: "bench." + r.ID, Parent: "pass", Start: at, End: at + int64(r.Wall)})
			at += int64(r.Wall)
		}
		all.WriteString(r.Rendered)
		if r.Err != nil {
			out.problems = append(out.problems, fmt.Sprintf("experiment %s: %v", r.ID, r.Err))
		} else if want, ok := s.reference[r.ID]; ok && want != r.Rendered {
			out.problems = append(out.problems, fmt.Sprintf("experiment %s rendered differently from the reference pass", r.ID))
		}
	}
	if rec != nil {
		rec.add(span{Req: uint64(n), Name: "pass", Start: start, End: start + int64(rep.Wall)})
	}
	out.rendered = all.String()
	return out
}

// passes makes the whole number of passes that comes closest to seconds, at
// least one. Every pass must render what the first one did.
func (s *simSuite) passes(seconds float64, rec *spanRecorder) (measured, passResult) {
	var out measured
	var first string
	var last passResult
	start := time.Now()
	for n := 0; ; n++ {
		last = s.pass(n, rec)
		if n == 0 {
			first = last.rendered
		} else if last.rendered != first {
			last.problems = append(last.problems, fmt.Sprintf("pass %d rendered differently from pass 0", n))
		}
		out.attempted++
		if len(last.problems) > 0 {
			out.failed++
			out.problems = append(out.problems, last.problems...)
		} else {
			out.samples = append(out.samples, sample{dur: last.wallNs, ops: 1})
		}
		out.elapsed += last.wallNs / 1e9
		out.cpuNs += last.cpuNs
		if time.Since(start).Seconds()+last.wallNs/2e9 > seconds {
			break
		}
	}
	out.notes = []string{
		fmt.Sprintf("%d experiments per pass, %d passes", len(s.exps), out.attempted),
		fmt.Sprintf("rendered output sha256 %x", sha256.Sum256([]byte(first))),
	}
	return out, last
}

func (s *simSuite) measure(seconds float64) measured {
	m, _ := s.passes(seconds, nil)
	return m
}

func (s *simSuite) layers(seconds float64, rec *spanRecorder) (map[string]float64, measured) {
	m := make(map[string]float64)
	before := snapshot()
	out, last := s.passes(seconds/5, rec) // one pass
	after := snapshot()
	var rest float64
	for id, ms := range last.wallMs {
		if slices.Contains(ownMetric, id) {
			m["bench."+id+"_wall_ms"] = ms
		} else {
			rest += ms
		}
	}
	m["bench.rest_wall_ms"] = rest
	m["gen.samples"] = float64(len(out.samples))
	runtimeMetrics(m, before, after, out.ops())
	simProbes(m)
	sampleProbes(m)
	return m, out
}

// simProbes times the simulation kernel alone: a bare event loop of
// self-rescheduling events with a thousand pending, and a processor fed
// work faster than it drains.
func simProbes(m map[string]float64) {
	const events, pending = 3_000_000, 1000
	s := sim.New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+pending <= events {
			s.After(time.Duration(1+fired%997)*time.Microsecond, tick)
		}
	}
	for i := 0; i < pending; i++ {
		s.After(time.Duration(i)*time.Microsecond, tick)
	}
	t0 := time.Now()
	s.Run()
	m["sim.events_per_s"] = float64(fired) / time.Since(t0).Seconds()

	const submits = 1_000_000
	s = sim.New(1)
	p := sim.NewProcessor(s, "probe", 4)
	done := 0
	work := make([]sim.Work, submits)
	t0 = time.Now()
	for i := range work {
		work[i] = sim.Work{Tenant: "t", Cost: time.Duration(1+i%13) * time.Microsecond, Do: func() { done++ }}
		p.Submit(&work[i])
	}
	s.Run()
	m["sim.submits_per_s"] = float64(done) / time.Since(t0).Seconds()
}
