package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/l7"
	"canalmesh/internal/policy"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/trace"
)

// decideBatch is how many consecutive decisions one latency sample covers:
// a decision takes about a microsecond, so the benchmark times batches and
// reports each batch's mean per decision.
const decideBatch = 64

// decideWorkers is how many goroutines replay the stream in the run the
// workload is judged by. The traced run adds a pass with contendedWorkers,
// one per core, where the path's shared locks (the admission mutex, the
// engine's RWMutex, the tracer, the log) are fought over as two requests on
// the live path can.
const (
	decideWorkers    = 1
	contendedWorkers = 2
)

// accessLogCap is the live gateway's access-log bound.
const accessLogCap = 65536

// The boundaries of one decision, in call order. Segment i runs from
// boundary i to boundary i+1 and is one call into one layer.
var decideCalls = [...]string{
	"trace.parse", "trace.start", "admission.admit", "l7.route",
	"trace.hop", "admission.release", "telemetry.log", "trace.finish",
}

// decideOp is one pre-built request of the socket-free workload and the
// verdict the generator expects for it.
type decideOp struct {
	req             l7.Request
	tenant, service string
	name            string // span name, as the gateway builds it
	traceparent     string
	wantStatus      int
	wantRule        string
	wantSplit       bool // the matched rule splits between v1 and v2
	wantRewrite     string
}

// decideWorld holds the layers a decision passes through, each built and
// called through its exported API as the gateway's request path does.
type decideWorld struct {
	engine *l7.Engine
	admit  *admission.HTTPController
	tracer *trace.Tracer
	log    *telemetry.AccessLog
	epoch  time.Time

	services    [][]serviceInfo
	ops         []decideOp
	hash        uint64
	scannedMean float64
	bulkCompile time.Duration
	cursor      atomic.Uint64 // next batch
}

func decideSetup(seed int64, _, scale float64) (instance, error) {
	spec := worldSpec{tenants: 64, services: 16, authzRules: 96, routeRules: 24, zipf: 1.1, deniedShare: 0.05}
	if scale < 1 {
		spec.tenants = max(2, int(float64(spec.tenants)*scale))
		spec.services = max(2, int(float64(spec.services)*scale))
	}
	n := max(int(unsignedPool*scale)/decideBatch, 4) * decideBatch
	services, specs := genWorld(seed, spec, n)

	log := &telemetry.AccessLog{}
	log.SetCapacity(accessLogCap)
	d := &decideWorld{
		engine:   l7.NewEngine(1),
		admit:    admission.NewHTTPController(admissionConfig),
		tracer:   trace.NewLive(),
		log:      log,
		epoch:    time.Now(),
		services: services,
		hash:     streamHash(specs),
	}
	t0 := time.Now()
	for t := range services {
		for s := range services[t] {
			cfg := services[t][s].cfg
			cfg.Service = tenantName(t) + "/" + cfg.Service
			if err := d.engine.Configure(cfg); err != nil {
				return nil, fmt.Errorf("configuring %s: %w", cfg.Service, err)
			}
		}
	}
	d.bulkCompile = time.Since(t0)

	// Requests that differ only outside their headers share one map, as
	// nothing on the decision path writes to it.
	headers := make(map[string]map[string]string)
	cookies := make(map[string]map[string]string)
	nonce := [8]byte{0x80}
	d.ops = make([]decideOp, len(specs))
	for i := range specs {
		sp := &specs[i]
		hm, ok := headers[sp.routeKey]
		if !ok {
			hm = map[string]string{
				hdrRouteKey: sp.routeKey, hdrStrip: "1", "Accept": "*/*", "User-Agent": "canalbench/1",
				"X-Request-Class": "get", "X-Client-Version": "canalbench/1", "Accept-Language": "en",
				"X-Forwarded-Proto": "http", "Cache-Control": "no-cache", "X-Region": "r1",
				"X-Zone": "z1", "X-Session": "s",
			}
			headers[sp.routeKey] = hm
		}
		cm, ok := cookies[sp.cookie]
		if !ok {
			cm = map[string]string{"session": "s", cookieRoute: sp.cookie}
			cookies[sp.cookie] = cm
		}
		tenant, service := tenantName(sp.tenant), serviceName(sp.service)
		op := &d.ops[i]
		*op = decideOp{
			req: l7.Request{
				Tenant: tenant, Service: tenant + "/" + service, SourceService: sp.source,
				SourcePod: sp.source + "-pod-0", Method: sp.method, Path: sp.path,
				Headers: hm, Cookies: cm,
			},
			tenant: tenant, service: service,
			name:        sp.method + " " + sp.path,
			traceparent: traceparent(nonce, uint64(i)),
			wantStatus:  sp.wantStatus,
			wantRule:    sp.wantRule,
			wantSplit:   sp.wantSubsets != subsetV1,
		}
		if sp.wantPath != sp.path {
			op.wantRewrite = sp.wantPath
		}
		if sp.wantStatus == 200 {
			d.scannedMean += float64(sp.wantScanned)
		}
	}
	d.scannedMean /= float64(len(specs))
	return d, nil
}

func (d *decideWorld) close() {}

// decide takes one request through the gateway's decision path and reports
// whether the verdict is the expected one. at, when non-nil, receives a
// clock reading at every call boundary.
func (d *decideWorld) decide(op *decideOp, at *[len(decideCalls) + 1]int64, clock func() int64) bool {
	mark := func(i int) {
		if at != nil {
			at[i] = clock()
		}
	}
	now := time.Since(d.epoch)
	mark(0)
	id, parent, sampled, err := trace.ParseTraceparent(op.traceparent)
	if err != nil {
		return false
	}
	mark(1)
	tr := d.tracer.StartRemoteTenant(id, parent, sampled, "gateway", op.tenant, op.name)
	mark(2)
	release, rej := d.admit.Admit(op.tenant, op.service, false)
	if rej != nil {
		d.tracer.Finish(tr, l7.StatusTooManyRequests)
		return false
	}
	mark(3)
	hopStart := d.tracer.Now()
	dec, err := d.engine.Route(now, &op.req)
	mark(4)
	hopEnd := d.tracer.Now()
	tr.AddHop(trace.Hop{Name: "gateway/upstream", Start: hopStart, End: hopEnd})
	mark(5)
	status := l7.StatusOK
	if err != nil {
		status = l7.StatusUnavailable
		var de *l7.DecisionError
		if errors.As(err, &de) {
			status = de.Status
		}
	}
	release(err == nil)
	mark(6)
	d.log.Log(telemetry.AccessEntry{
		At: now, Layer: telemetry.AccessL7, Where: "gateway", Tenant: op.tenant, Service: op.service,
		SrcPod: op.req.SourceService, Method: op.req.Method, Path: op.req.Path, Status: status,
		Latency: hopEnd - hopStart, TraceID: tr.ID.String(),
	})
	mark(7)
	d.tracer.Finish(tr, status)
	mark(8)

	if status != op.wantStatus {
		return false
	}
	if status != l7.StatusOK {
		return true
	}
	return dec.Rule == op.wantRule && dec.PathRewrite == op.wantRewrite &&
		(dec.Subset == subsetV1 || op.wantSplit && dec.Subset == subsetV2)
}

// replayed is what a replay adds up beside its samples.
type replayed struct {
	attempted, failed int
	problems          []string
	segNs             [len(decideCalls)]float64 // ns spent in each call
	decided           float64                   // decisions those sums cover
}

// replay takes batches of the stream through decide on n goroutines until
// the time is up. With rec set it also records a span per call.
func (d *decideWorld) replay(seconds float64, n int, rec *spanRecorder) (timing, replayed) {
	base := d.cursor.Load() * decideBatch // spans are numbered from the run's first decision
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	type lane struct {
		samples   []sample
		attempted int
		failed    int
		firstBad  string
		segNs     [len(decideCalls)]int64
		spans     []span
	}
	lanes := make([]lane, n)
	cpu := cpuNow()
	var wg sync.WaitGroup
	for g := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			var at *[len(decideCalls) + 1]int64
			var clock func() int64
			if rec != nil {
				at, clock = new([len(decideCalls) + 1]int64), rec.now
			}
			for time.Now().Before(deadline) {
				first := (d.cursor.Add(1) - 1) * decideBatch
				bad := 0
				t0 := time.Now()
				for i := uint64(0); i < decideBatch; i++ {
					n := first + i
					op := &d.ops[n%uint64(len(d.ops))]
					if !d.decide(op, at, clock) {
						bad++
						if ln.firstBad == "" {
							ln.firstBad = fmt.Sprintf("decision %d (%s %s from %s): unexpected verdict", n, op.req.Service, op.name, op.req.SourceService)
						}
						continue
					}
					if at == nil {
						continue
					}
					for c := range decideCalls {
						ln.segNs[c] += at[c+1] - at[c]
					}
					if req := n - base; req < spanFileRequests {
						ln.spans = append(ln.spans, span{Req: req, Name: "request", Start: at[0], End: at[len(decideCalls)]})
						for c, name := range decideCalls {
							ln.spans = append(ln.spans, span{Req: req, Name: name, Parent: "request", Start: at[c], End: at[c+1]})
						}
					}
				}
				t1 := time.Now()
				ln.attempted += decideBatch
				ln.failed += bad
				if bad == 0 {
					ln.samples = append(ln.samples, sample{dur: float64(t1.Sub(t0)), ops: decideBatch})
				}
			}
		}(&lanes[g])
	}
	wg.Wait()
	t := timing{elapsed: time.Since(start).Seconds(), cpuNs: float64(cpuNow() - cpu)}

	var tot replayed
	for i := range lanes {
		ln := &lanes[i]
		t.samples = append(t.samples, ln.samples...)
		tot.attempted += ln.attempted
		tot.failed += ln.failed
		tot.decided += float64(ln.attempted - ln.failed)
		if ln.firstBad != "" {
			tot.problems = append(tot.problems, ln.firstBad)
		}
		for c := range decideCalls {
			tot.segNs[c] += float64(ln.segNs[c])
		}
		if rec != nil {
			rec.mu.Lock()
			rec.spans = append(rec.spans, ln.spans...)
			rec.mu.Unlock()
		}
	}
	if shed := d.admit.Metrics().ShedTotal(); shed > 0 {
		tot.problems = append(tot.problems, fmt.Sprintf("admission shed %.0f decisions; the workload is sized to shed none", shed))
	}
	return t, tot
}

func (d *decideWorld) result(t timing, tot replayed) measured {
	return measured{timing: t, attempted: tot.attempted, failed: tot.failed, problems: tot.problems,
		notes: []string{fmt.Sprintf("request stream hash %016x over %d generated requests", d.hash, len(d.ops))}}
}

func (d *decideWorld) measure(seconds float64) measured {
	return d.result(d.replay(seconds, decideWorkers, nil))
}

// clockCostNs measures what one reading of the span clock costs, so the
// per-call means can be reported without it.
func clockCostNs(rec *spanRecorder) float64 {
	const reads = 200000
	t0 := rec.now()
	for i := 0; i < reads-1; i++ {
		rec.now()
	}
	return float64(rec.now()-t0) / reads
}

func (d *decideWorld) layers(seconds float64, rec *spanRecorder) (map[string]float64, measured) {
	m := make(map[string]float64)
	plain, plainTot := d.replay(seconds/5, decideWorkers, nil)
	before := snapshot()
	traced, tot := d.replay(seconds/5, decideWorkers, rec)
	after := snapshot()
	contended, contendedTot := d.replay(seconds/5, contendedWorkers, nil)
	out := d.result(traced, tot)
	for _, other := range []replayed{plainTot, contendedTot} {
		out.attempted += other.attempted
		out.failed += other.failed
		out.problems = append(out.problems, other.problems...)
	}
	seg := make(map[string]float64)
	if tot.decided > 0 {
		for c, name := range decideCalls {
			seg[name] = tot.segNs[c] / tot.decided
		}
	}

	clock := clockCostNs(rec)
	m["harness.timer_ns"] = clock
	m["trace.parse_ns"] = seg["trace.parse"] - clock
	m["trace.span_ns"] = seg["trace.start"] + seg["trace.hop"] + seg["trace.finish"] - 3*clock
	m["admission.admit_release_ns"] = seg["admission.admit"] + seg["admission.release"] - 2*clock
	m["l7.route_ns"] = seg["l7.route"] - clock
	m["telemetry.log_ns"] = seg["telemetry.log"] - clock
	m["l7.rules_scanned_mean"] = d.scannedMean
	m["policy.bulk_compile_s"] = d.bulkCompile.Seconds()
	m["trace.started"] = float64(d.tracer.Started())
	m["trace.kept"] = float64(len(d.tracer.Kept()))
	m["telemetry.log_dropped"] = float64(d.log.Dropped())
	m["admission.shed_total"] = d.admit.Metrics().ShedTotal()

	plainSum, tracedSum := summarize(plain), summarize(traced)
	m["gen.samples"] = float64(tracedSum.samples)
	if tracedSum.beyondP99 >= minBeyond {
		m["gen.latency_p99_us"] = tracedSum.p99us
	}
	if tracedSum.p999us > 0 {
		m["gen.latency_p999_us"] = tracedSum.p999us
	}
	m["gen.decide_2workers_per_s"] = summarize(contended).opsPerSec
	if plainSum.p50us > 0 {
		m["harness.trace_overhead_share"] = (tracedSum.p50us - plainSum.p50us) / plainSum.p50us
	}
	runtimeMetrics(m, before, after, traced.ops())

	// The policy lookup happens inside Route, so it is timed on its own,
	// over the same queries in stream order.
	pol := d.engine.Policy()
	var candidates float64
	t0 := time.Now()
	for i := range d.ops {
		r := &d.ops[i].req
		pol.Eval(policy.Query{SrcTenant: r.Tenant, SrcService: r.SourceService, DstService: r.Service,
			Method: r.Method, Path: r.Path, Headers: r.Headers})
	}
	m["policy.eval_ns"] = float64(time.Since(t0)) / float64(len(d.ops))
	for i := range d.ops {
		r := &d.ops[i].req
		candidates += float64(pol.CandidateRules(policy.Query{SrcTenant: r.Tenant, SrcService: r.SourceService,
			DstService: r.Service, Method: r.Method, Path: r.Path, Headers: r.Headers}))
	}
	m["policy.candidates_mean"] = candidates / float64(len(d.ops))
	// A float64 holds 53 bits exactly; the low 52 of the fingerprint are
	// enough to tell two compiled tables apart.
	m["policy.fingerprint"] = float64(pol.Fingerprint() & (1<<52 - 1))

	if err := d.reconfigProbes(m); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	sampleProbes(m)
	return m, out
}

// reconfigProbes times one service's reconfiguration at the two levels it
// can be called from outside: Engine.Configure, and the policy delta under
// it (a 96-intention service in, then out).
func (d *decideWorld) reconfigProbes(m map[string]float64) error {
	const calls = 20
	var configure, apply []float64
	for n := 0; n < calls; n++ {
		t := n % len(d.services)
		cfg := d.services[t][n%len(d.services[t])].cfg
		cfg.Service = tenantName(t) + "/" + cfg.Service
		t0 := time.Now()
		if err := d.engine.Configure(cfg); err != nil {
			return fmt.Errorf("reconfiguring %s: %w", cfg.Service, err)
		}
		configure = append(configure, float64(time.Since(t0))/1e3)

		intents := make([]policy.Intention, 96)
		ids := make([]string, len(intents))
		for i := range intents {
			ids[i] = fmt.Sprintf("probe/%d", i)
			intents[i] = policy.Intention{ID: ids[i], Name: ids[i], Src: policy.Exact(fmt.Sprintf("peer-%d", i)),
				Dst: policy.Exact("probe/svc"), Action: policy.ActionAllow}
		}
		t0 = time.Now()
		if _, err := d.engine.Policy().Apply(nil, intents); err != nil {
			return fmt.Errorf("policy apply: %w", err)
		}
		apply = append(apply, float64(time.Since(t0))/1e3)
		if _, err := d.engine.Policy().Apply(ids, nil); err != nil {
			return fmt.Errorf("policy apply: %w", err)
		}
	}
	sort.Float64s(configure)
	sort.Float64s(apply)
	m["l7.configure_us"] = percentile(configure, 50)
	m["policy.apply_us"] = percentile(apply, 50)
	return nil
}

// sampleProbes times telemetry.Sample, the latency-statistics type every
// experiment and the admission layer record into: one Observe, and one
// Percentile over a million observations.
func sampleProbes(m map[string]float64) {
	const n = 1_000_000
	var s telemetry.Sample
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Observe(float64((i * 7919) % n))
	}
	m["telemetry.sample_observe_ns"] = float64(time.Since(t0)) / n
	t0 = time.Now()
	s.Percentile(99)
	m["telemetry.sample_p99_us"] = float64(time.Since(t0)) / 1e3
}
