// Command benchmark is the repository's one benchmark: five workloads over
// the live gateway, its decision path and the simulator, reporting the
// end-to-end metrics with tracing off and the per-layer metrics from a
// separate traced run. README.md in this directory describes the metrics,
// the workloads and how they interact; BENCHMARK.json at the repository root
// is the contract a driver reads.
//
//	bash benchmark/run.sh --workload live-auth --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric. A workload reports the ones its
// traced run can measure. The result line must carry every name, so the
// others are 0 there; the readable report says "not measured" instead.
var perLayer = []metricDef{
	{"canal.resident_p50_us", "us"},
	{"canal.pre_upstream_p50_us", "us"},
	{"canal.post_upstream_p50_us", "us"},
	{"canal.upstream_hop_p50_us", "us"},
	{"canal.added_vs_direct_p50_us", "us"},
	{"canal.added_allocs_per_req", "count"},
	{"canal.reconfig_p50_us", "us"},
	{"canal.reconfig_p99_us", "us"},
	{"canal.mirror_failures", "count"},
	{"meshcrypto.verify_peer_us", "us"},
	{"meshcrypto.verify_sig_us", "us"},
	{"meshcrypto.sign_us", "us"},
	{"meshcrypto.auth_toggle_delta_p50_us", "us"},
	{"meshcrypto.auth_share", "share"},
	{"admission.admit_release_ns", "ns"},
	{"admission.toggle_delta_p50_us", "us"},
	{"admission.shed_total", "count"},
	{"l7.route_ns", "ns"},
	{"l7.rules_scanned_mean", "count"},
	{"l7.configure_us", "us"},
	{"policy.eval_ns", "ns"},
	{"policy.candidates_mean", "count"},
	{"policy.apply_us", "us"},
	{"policy.bulk_compile_s", "s"},
	{"policy.fingerprint", "id"},
	{"trace.parse_ns", "ns"},
	{"trace.span_ns", "ns"},
	{"trace.started", "count"},
	{"trace.kept", "count"},
	{"telemetry.log_ns", "ns"},
	{"telemetry.log_dropped", "count"},
	{"telemetry.sample_observe_ns", "ns"},
	{"telemetry.sample_p99_us", "us"},
	{"sim.events_per_s", "1/s"},
	{"sim.submits_per_s", "1/s"},
	{"bench.fig16_wall_ms", "ms"},
	{"bench.policy_wall_ms", "ms"},
	{"bench.fig27_wall_ms", "ms"},
	{"bench.admission_wall_ms", "ms"},
	{"bench.configpush_wall_ms", "ms"},
	{"bench.fig5_wall_ms", "ms"},
	{"bench.fig11_wall_ms", "ms"},
	{"bench.fig20_wall_ms", "ms"},
	{"bench.fig2_wall_ms", "ms"},
	{"bench.fig12_wall_ms", "ms"},
	{"bench.fed-evac_wall_ms", "ms"},
	{"bench.fed-split_wall_ms", "ms"},
	{"bench.rest_wall_ms", "ms"},
	{"gen.direct_p50_us", "us"},
	{"gen.open_p50_us", "us"},
	{"gen.open_p99_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.slo_miss_share", "share"},
	{"gen.latency_p99_us", "us"},
	{"gen.latency_p999_us", "us"},
	{"gen.decide_2workers_per_s", "1/s"},
	{"gen.samples", "count"},
	{"gen.presign_s", "s"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.goroutines_end", "count"},
	{"harness.trace_overhead_share", "share"},
	{"harness.timer_ns", "ns"},
}

// setups is how many times a run sets its workload up: setup_s is their
// median, and the last set-up is the one measured.
const setups = 3

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     string
	scale     float64
	traceOut  string
	selfcheck bool
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: live-auth, live-route, live-mix, decide-direct or sim-suite")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured run lasts")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; empty: both")
	flag.Float64Var(&o.scale, "scale", 1, "shrink the workload's tables and streams, for smoke runs")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/spans-<workload>.jsonl)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run each workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()

	var err error
	if o.selfcheck {
		err = selfcheck(o, os.Stdout)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run executes one workload as the options ask and prints the report, the
// JSON result line last. It returns an error when the run could not be made
// or its outputs were not correct.
func run(o options, w io.Writer) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace must be 0, 1 or empty, not %q", o.trace)
	}
	if o.seconds <= 0 || o.scale <= 0 || o.scale > 1 {
		return errors.New("-seconds must be positive and -scale in (0, 1]")
	}
	fmt.Fprintf(w, "workload %s, seed %d, %.3g s, GOMAXPROCS %d\n", wl.name, o.seed, o.seconds, runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "one process on the loopback interface: generator, gateway and upstreams share its cores and its heap")

	res := result{Correct: true, Metrics: make(map[string]value)}
	var problems []string
	if o.trace != "1" {
		m, err := runEndToEnd(wl, o, w)
		if err != nil {
			return err
		}
		report(w, &res, endToEnd, m.values)
		res.Attempted += m.attempted
		res.Failed += m.failed
		problems = append(problems, m.problems...)
	}
	if o.trace != "0" {
		m, err := runTraced(wl, o, w)
		if err != nil {
			return err
		}
		report(w, &res, perLayer, m.values)
		res.Attempted += m.attempted
		res.Failed += m.failed
		problems = append(problems, m.problems...)
	}
	for _, p := range problems {
		fmt.Fprintln(w, "incorrect:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return errors.New("outputs were not correct")
	}
	return nil
}

// reported is one mode's metrics and correctness counts.
type reported struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func report(w io.Writer, res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.name]
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		if ok {
			fmt.Fprintf(w, "%-38s %16.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "%-38s %16s\n", d.name, "not measured")
		}
	}
}

// runEndToEnd sets the workload up several times, measures the last set-up
// with tracing off and derives the end-to-end metrics.
func runEndToEnd(wl workload, o options, w io.Writer) (reported, error) {
	var inst instance
	var setupSec []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			// Each set-up starts from a collected heap, so peak memory is
			// that of one set-up and not of the garbage of three.
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(o.seed, o.seconds, o.scale); err != nil {
			return reported{}, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	defer inst.close()

	before := snapshot()
	m := inst.measure(o.seconds)
	after := snapshot()
	rss, err := peakRSSMB()
	if err != nil {
		return reported{}, fmt.Errorf("reading peak RSS: %w", err)
	}
	sum := summarize(m.timing)
	ops := m.ops()
	out := reported{attempted: m.attempted, failed: m.failed, problems: m.problems, values: map[string]float64{
		"setup_s":          median(setupSec),
		"throughput_ops_s": sum.opsPerSec,
		"latency_p50_us":   sum.p50us,
		"peak_rss_mb":      rss,
	}}
	if ops > 0 {
		out.values["cpu_us_per_op"] = m.cpuNs / 1e3 / ops
		out.values["allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	}
	for _, n := range m.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "untraced run: %.2f s, %d latency samples, p99 %.1f µs with %d samples beyond it (informational); set-ups %.3v s\n",
		m.elapsed, sum.samples, sum.p99us, sum.beyondP99, setupSec)
	return out, nil
}

// runTraced sets the workload up once, runs it traced and writes the spans.
func runTraced(wl workload, o options, w io.Writer) (reported, error) {
	inst, err := wl.setup(o.seed, o.seconds, o.scale)
	if err != nil {
		return reported{}, fmt.Errorf("set-up: %w", err)
	}
	rec := newSpanRecorder()
	values, m := inst.layers(o.seconds, rec)
	inst.close()
	values["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "spans-"+wl.name+".jsonl")
	}
	spans := withGatewaySpans(rec.spans)
	if err := writeSpans(path, spans); err != nil {
		return reported{}, err
	}
	for _, n := range m.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "traced run: %d spans recorded, those of the first %d requests written to %s\n", len(spans), spanFileRequests, path)
	return reported{values: values, attempted: m.attempted, failed: m.failed, problems: m.problems}, nil
}
