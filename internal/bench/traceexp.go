package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"canalmesh/internal/proxy"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/trace"
	"canalmesh/internal/units"
)

// ArchTraceBreakdown couples one architecture's trace-derived per-hop latency
// attribution with the end-to-end latency sample measured independently at
// the Send callback. The two must reconcile: the breakdown's per-hop sum is
// built from span segments, the sample from wall-to-wall completion times,
// and exhaustive instrumentation makes them agree up to integer rounding.
type ArchTraceBreakdown struct {
	Arch      string           `json:"arch"`
	Breakdown *trace.Breakdown `json:"breakdown"`
	// MeasuredMean/MeasuredP99 come from the Send-callback latency sample
	// (the same measurement the figure experiments histogram), not from
	// trace data.
	MeasuredMean time.Duration `json:"measured_mean"`
	MeasuredP99  time.Duration `json:"measured_p99"`
}

// TraceBreakdownReport is the JSON-exportable result of a tracing run across
// one or more architectures under an identical workload and seed.
type TraceBreakdownReport struct {
	Seed     int64                 `json:"seed"`
	Requests int                   `json:"requests"`
	Archs    []*ArchTraceBreakdown `json:"archs"`
}

// TraceExperiment drives an identical HTTPS workload through each requested
// architecture with tracing on (every trace started in the simulator is
// sampled and kept), then collapses the traces into per-architecture critical-path
// breakdowns. Requests arrive in bursts of four so the per-hop Queue column
// is exercised, and each burst opens one new TLS connection so the asymmetric
// crypto share appears on the handshake-bearing hops.
func TraceExperiment(archs []string, requests int, seed int64) (*TraceBreakdownReport, error) {
	if requests <= 0 {
		requests = 200
	}
	rep := &TraceBreakdownReport{Seed: seed, Requests: requests}
	for _, arch := range archs {
		s := sim.New(seed)
		cfg := newComparisonCfg(s)
		cfg.Asym = proxy.LocalSoftwareAsym(cfg.Costs)
		cfg.Tracer = trace.New(trace.Config{Seed: seed, Clock: s.Now})
		mesh, err := proxy.DefaultTestbedSpec(cfg).Build(arch)
		if err != nil {
			return nil, fmt.Errorf("bench: trace experiment: %w", err)
		}
		var lat telemetry.Sample
		const burstSize = 4
		for i := 0; i < requests; i++ {
			newConn := i%burstSize == 0
			at := time.Duration(i/burstSize) * 10 * time.Millisecond
			s.At(at, func() {
				r := webRequest()
				r.TLS = true
				r.NewConnection = newConn
				mesh.Send(r, func(l time.Duration, _ int) { lat.ObserveDuration(l) })
			})
		}
		s.Run()
		rep.Archs = append(rep.Archs, &ArchTraceBreakdown{
			Arch:         arch,
			Breakdown:    trace.Analyze(cfg.Tracer.Kept()),
			MeasuredMean: units.Seconds(lat.Mean()),
			MeasuredP99:  units.Seconds(lat.Percentile(99)),
		})
	}
	return rep, nil
}

// us renders a duration as microseconds with two decimals.
func us(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}

// Tables renders one latency-breakdown table per architecture: a row per hop
// position with mean Net/Queue/CPU/Crypto attribution, a TOTAL row, and a
// note reconciling the per-hop sum against the independently measured
// end-to-end mean.
func (r *TraceBreakdownReport) Tables() []*Table {
	var out []*Table
	for _, a := range r.Archs {
		t := &Table{ID: "trace-" + a.Arch,
			Title:   fmt.Sprintf("Per-hop latency breakdown (%s, %d requests, seed %d)", a.Arch, r.Requests, r.Seed),
			Headers: []string{"#", "Hop", "Net (µs)", "Queue (µs)", "CPU (µs)", "Crypto (µs)", "Mean (µs)"}}
		b := a.Breakdown
		for _, h := range b.Hops {
			n := time.Duration(h.Count) //canal:allow unitsafe count divisor; integer division of the sums is intentional
			t.AddRow(h.Index, h.Name, us(h.Net/n), us(h.Queue/n), us(h.CPU/n), us(h.Crypto/n), us(h.Mean()))
		}
		t.AddRow("", "TOTAL", "", "", "", "", us(b.HopSum()))
		diff := b.HopSum() - a.MeasuredMean
		if diff < 0 {
			diff = -diff
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"per-hop sum %sµs vs measured end-to-end mean %sµs (|diff| %v, P99 %v; traces %d)",
			us(b.HopSum()), us(a.MeasuredMean), diff, a.MeasuredP99, b.Traces))
		out = append(out, t)
	}
	return out
}

// String renders all per-architecture tables.
func (r *TraceBreakdownReport) String() string {
	var b strings.Builder
	for _, t := range r.Tables() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON marshals the report for artifact export.
func (r *TraceBreakdownReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
