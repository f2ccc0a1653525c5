package main

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"
)

// sloUs is the latency limit of the open-loop pass: p99 within 5 ms at its
// fixed rate.
const sloUs = 5000

// measured is what one run of a workload hands back for reporting.
type measured struct {
	timing
	attempted int
	failed    int
	problems  []string // why the run's outputs are not correct; empty when they are
	notes     []string // printed for the reader, not part of any metric
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// measure runs the workload for about seconds with tracing off.
	measure(seconds float64) measured
	// layers runs it traced, recording spans into rec, and returns the
	// per-layer metrics it could measure.
	layers(seconds float64, rec *spanRecorder) (map[string]float64, measured)
	close()
}

// workload names a set of inputs and how to set it up from a seed.
type workload struct {
	name  string
	setup func(seed int64, seconds, scale float64) (instance, error)
}

var workloads = []workload{
	{"live-auth", liveSetup(worldSpec{
		tenants: 4, services: 4, auth: true, rateCap: 9000,
	})},
	{"live-route", liveSetup(worldSpec{
		tenants: 64, services: 16, authzRules: 96, routeRules: 24, zipf: 1.1, deniedShare: 0.05,
	})},
	{"live-mix", liveSetup(worldSpec{
		tenants: 4, services: 4, authzRules: 96, routeRules: 8, auth: true, mirrorRule: true,
		postShare: 0.20, mirrorShare: 0.10, reconfigPerSec: 10, openRate: 1000, rateCap: 8000,
	})},
	{"decide-direct", decideSetup},
	{"sim-suite", simSetup},
}

func liveSetup(spec worldSpec) func(int64, float64, float64) (instance, error) {
	return func(seed int64, seconds, scale float64) (instance, error) {
		spec := spec
		if scale < 1 {
			spec.tenants = max(2, int(float64(spec.tenants)*scale))
			spec.services = max(2, int(float64(spec.services)*scale))
		}
		w, err := newWorld(seed, spec, seconds, scale)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
}

// liveTotals is what a run of live traffic reports beside its samples.
type liveTotals struct {
	attempted, failed int
	problems          []string
	lateUs, reconfigs []float64
	exhausted         bool
}

// drive runs the stream as r describes for seconds.
func (w *world) drive(seconds float64, r liveRun) (timing, liveTotals) {
	r.seconds = seconds
	cpu := cpuNow()
	res := w.run(r)
	t := timing{samples: res.samples, elapsed: res.elapsed.Seconds(), cpuNs: float64(cpuNow() - cpu)}
	tot := liveTotals{attempted: res.attempted, failed: res.failed, lateUs: res.lateUs,
		reconfigs: res.reconfigs, exhausted: res.exhausted}
	if res.firstBad != "" {
		tot.problems = append(tot.problems, res.firstBad)
	}
	return t, tot
}

func (m *measured) absorb(tot liveTotals) {
	m.attempted += tot.attempted
	m.failed += tot.failed
	m.problems = append(m.problems, tot.problems...)
}

func (w *world) measure(seconds float64) measured {
	var m measured
	t, tot := w.drive(seconds, liveRun{})
	m.timing = t
	m.absorb(tot)
	m.problems = append(m.problems, w.settle()...)
	m.notes = w.notes(tot)
	return m
}

func (w *world) notes(tot liveTotals) []string {
	notes := []string{fmt.Sprintf("request stream hash %016x over %d generated requests", w.hash, len(w.specs))}
	if tot.exhausted {
		notes = append(notes, "the signed stream ran out before the time did: the run stopped early and reused no signature")
	}
	return notes
}

// layers runs the stream in sixths of seconds: untraced, traced, then with
// one layer switched off at a time, as an open loop on a workload that has a
// rate for it, and last straight to the upstream.
func (w *world) layers(seconds float64, rec *spanRecorder) (map[string]float64, measured) {
	m := make(map[string]float64)
	var out measured
	sub := seconds / 6
	p50 := func(t timing) float64 { return summarize(t).p50us }

	mallocs := snapshot().mallocs
	plain, plainTot := w.drive(sub, liveRun{})
	plainMallocs := snapshot().mallocs - mallocs
	out.absorb(plainTot)
	plainP50 := p50(plain)

	before := snapshot()
	traced, tracedTot := w.drive(sub, liveRun{rec: rec})
	after := snapshot()
	out.absorb(tracedTot)
	out.timing = traced
	out.notes = w.notes(tracedTot)
	tracedSum := summarize(traced)

	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	joins := joinSpans(spans)
	reached := 0
	for _, s := range spans {
		if s.Name == "client" && w.specs[s.Req%uint64(len(w.specs))].wantStatus == 200 {
			reached++
		}
	}
	if len(joins) != reached {
		out.problems = append(out.problems, fmt.Sprintf("%d requests reached an upstream but %d joined a client span on the propagated trace ID", reached, len(joins)))
	}
	var pre, post, resident []float64
	for _, j := range joins {
		s := j.split()
		pre = append(pre, float64(s.pre)/1e3)
		post = append(post, float64(s.post)/1e3)
		resident = append(resident, float64(s.resident())/1e3)
	}
	m["canal.pre_upstream_p50_us"] = median(pre)
	m["canal.post_upstream_p50_us"] = median(post)
	m["canal.resident_p50_us"] = median(resident)

	var hops []float64
	kept := w.gw.Tracer().Kept()
	for _, t := range kept {
		for _, h := range t.Hops() {
			if h.Name == "gateway/upstream" {
				hops = append(hops, float64(h.End-h.Start)/1e3)
			}
		}
	}
	m["canal.upstream_hop_p50_us"] = median(hops)
	m["trace.started"] = float64(w.gw.Tracer().Started())
	m["trace.kept"] = float64(len(kept))
	m["telemetry.log_dropped"] = float64(w.gw.AccessLog().Dropped())
	m["admission.shed_total"] = w.gw.AdmissionMetrics().ShedTotal()

	if w.spec.auth {
		w.gw.RequireAuth = false
		noAuth, tot := w.drive(sub, liveRun{})
		w.gw.RequireAuth = true
		out.absorb(tot)
		m["meshcrypto.auth_toggle_delta_p50_us"] = plainP50 - p50(noAuth)
		if err := w.cryptoProbes(m); err != nil {
			out.problems = append(out.problems, err.Error())
		}
		m["meshcrypto.auth_share"] = (m["meshcrypto.verify_peer_us"] + m["meshcrypto.verify_sig_us"]) / m["canal.resident_p50_us"]
	}

	reconfigs := append(plainTot.reconfigs, tracedTot.reconfigs...)
	if w.spec.reconfigPerSec <= 0 {
		for n := 0; n < 40; n++ {
			us, err := w.reconfigure()
			if err != nil {
				out.problems = append(out.problems, "ConfigureService: "+err.Error())
				break
			}
			reconfigs = append(reconfigs, us)
		}
	}
	sort.Float64s(reconfigs)
	m["canal.reconfig_p50_us"] = percentile(reconfigs, 50)
	m["canal.reconfig_p99_us"] = percentile(reconfigs, 99)
	m["canal.mirror_failures"] = w.gw.MirrorFailures()

	// Admission cannot be switched off on a gateway that has it, so the
	// same services go into a second gateway without it.
	if err := w.buildGateway(false); err != nil {
		out.problems = append(out.problems, err.Error())
	} else {
		noAdmission, tot := w.drive(sub, liveRun{warm: warmupRequests})
		out.absorb(tot)
		m["admission.toggle_delta_p50_us"] = plainP50 - p50(noAdmission)
	}

	if w.spec.openRate > 0 {
		if err := w.buildGateway(true); err != nil {
			out.problems = append(out.problems, err.Error())
		} else {
			w.openLoopPass(sub, m, &out)
		}
	}

	mallocs = snapshot().mallocs
	direct, directTot := w.drive(sub, liveRun{direct: true, warm: warmupRequests})
	directMallocs := snapshot().mallocs - mallocs
	out.absorb(directTot)
	m["gen.direct_p50_us"] = p50(direct)
	m["canal.added_vs_direct_p50_us"] = plainP50 - p50(direct)
	if plainTot.attempted > 0 && directTot.attempted > 0 {
		m["canal.added_allocs_per_req"] = float64(plainMallocs)/float64(plainTot.attempted) -
			float64(directMallocs)/float64(directTot.attempted)
	}

	var scanned float64
	for i := range w.specs {
		if w.specs[i].wantStatus == 200 {
			scanned += float64(w.specs[i].wantScanned)
		}
	}
	m["l7.rules_scanned_mean"] = scanned / float64(len(w.specs))
	m["policy.bulk_compile_s"] = w.bulkCompile.Seconds()
	m["gen.presign_s"] = w.presign.Seconds()
	m["gen.samples"] = float64(tracedSum.samples)
	if tracedSum.beyondP99 >= minBeyond {
		m["gen.latency_p99_us"] = tracedSum.p99us
	}
	if tracedSum.p999us > 0 {
		m["gen.latency_p999_us"] = tracedSum.p999us
	}
	if plainP50 > 0 {
		m["harness.trace_overhead_share"] = (tracedSum.p50us - plainP50) / plainP50
	}
	runtimeMetrics(m, before, after, traced.ops())
	out.problems = append(out.problems, w.settle()...)
	return m, out
}

// openLoopPass offers the stream at the world's fixed rate whatever the
// gateway does with it, and times each request from when it was due. On the
// sandbox these runs are sized for, a mostly idle process is at the mercy of
// how the host wakes its cores: between two spells of the same machine the
// medians of this pass differ by 15-25%, more than any bound could hold. So
// it is not what the workload is judged by, but it is what tells whether the
// gateway keeps its latency limit at a rate.
func (w *world) openLoopPass(seconds float64, m map[string]float64, out *measured) {
	t, tot := w.drive(seconds, liveRun{open: true, warm: warmupRequests})
	out.absorb(tot)
	sum := summarize(t)
	m["gen.open_p50_us"] = sum.p50us
	m["gen.open_p99_us"] = sum.p99us
	sort.Float64s(tot.lateUs)
	m["gen.late_p99_us"] = percentile(tot.lateUs, 99)
	if tot.attempted > 0 {
		missed := tot.failed
		for _, s := range t.samples {
			if s.dur/1e3 > sloUs {
				missed++
			}
		}
		m["gen.slo_miss_share"] = float64(missed) / float64(tot.attempted)
	}
}

// runtimeMetrics reports what the Go runtime did over the traced run.
func runtimeMetrics(m map[string]float64, before, after procSnapshot, ops float64) {
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	}
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_pause_total_ms"] = float64(after.gcPause-before.gcPause) / 1e6
}

// cryptoProbeCalls is how many calls each crypto probe times.
const cryptoProbeCalls = 300

// cryptoProbes times, from outside, the calls the gateway makes to
// authenticate one request and the call the node agent makes to sign one.
func (w *world) cryptoProbes(m map[string]float64) error {
	ca, id := w.cas[0], w.sources[0][0].id
	digest := sha256.Sum256([]byte("canalbench probe"))
	sig, err := ecdsa.SignASN1(rand.Reader, id.Key, digest[:])
	if err != nil {
		return fmt.Errorf("crypto probe: %w", err)
	}
	t0 := time.Now()
	for i := 0; i < cryptoProbeCalls; i++ {
		if _, _, err := ca.VerifyPeer(id.CertDER); err != nil {
			return fmt.Errorf("crypto probe: %w", err)
		}
	}
	t1 := time.Now()
	for i := 0; i < cryptoProbeCalls; i++ {
		if !ecdsa.VerifyASN1(&id.Key.PublicKey, digest[:], sig) {
			return fmt.Errorf("crypto probe: signature did not verify")
		}
	}
	t2 := time.Now()
	for i := 0; i < cryptoProbeCalls; i++ {
		if _, err := ecdsa.SignASN1(rand.Reader, id.Key, digest[:]); err != nil {
			return fmt.Errorf("crypto probe: %w", err)
		}
	}
	t3 := time.Now()
	m["meshcrypto.verify_peer_us"] = float64(t1.Sub(t0)) / 1e3 / cryptoProbeCalls
	m["meshcrypto.verify_sig_us"] = float64(t2.Sub(t1)) / 1e3 / cryptoProbeCalls
	m["meshcrypto.sign_us"] = float64(t3.Sub(t2)) / 1e3 / cryptoProbeCalls
	return nil
}
