// Package bench contains one experiment per table and figure in the paper's
// evaluation and appendix. Every experiment builds its scenario from the
// library's packages, runs it under the simulator, and returns a Table or
// Series whose rows mirror what the paper reports. The root-level
// bench_test.go wraps each experiment in a testing.B benchmark, and
// cmd/canalbench executes them through the worker-pool Runner (runner.go)
// and prints them all as text in paper order.
package bench

import (
	"context"
	"fmt"
	"strings"
)

// Table is a rows-and-columns experiment result.
type Table struct {
	ID      string // e.g. "table5", "fig19"
	Title   string
	Headers []string
	Rows    [][]string
	// Notes records the shape checks against the paper's reported values.
	Notes []string
}

// AddRow appends a row of stringable cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Line is one named data series of a figure.
type Line struct {
	Name string
	X    []float64
	Y    []float64
}

// Series is a figure-style experiment result: one or more lines over a
// shared axis pair.
type Series struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Lines  []Line
	Notes  []string
}

// Add appends a point to the named line, creating it on first use.
func (s *Series) Add(line string, x, y float64) {
	for i := range s.Lines {
		if s.Lines[i].Name == line {
			s.Lines[i].X = append(s.Lines[i].X, x)
			s.Lines[i].Y = append(s.Lines[i].Y, y)
			return
		}
	}
	s.Lines = append(s.Lines, Line{Name: line, X: []float64{x}, Y: []float64{y}})
}

// Get returns the named line, or nil.
func (s *Series) Get(line string) *Line {
	for i := range s.Lines {
		if s.Lines[i].Name == line {
			return &s.Lines[i]
		}
	}
	return nil
}

// String renders the series as a compact text block, one line per series
// with its points.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", s.ID, s.Title)
	fmt.Fprintf(&b, "x: %s, y: %s\n", s.XLabel, s.YLabel)
	for _, l := range s.Lines {
		fmt.Fprintf(&b, "%-24s", l.Name)
		for i := range l.X {
			fmt.Fprintf(&b, " (%s, %s)", trimFloat(l.X[i]), trimFloat(l.Y[i]))
		}
		b.WriteByte('\n')
	}
	for _, n := range s.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Result is either a Table or a Series.
type Result interface {
	fmt.Stringer
}

// Experiment couples an ID with its runner. Run never prints: it returns the
// structured Result and leaves rendering/emission to the caller (the Runner
// in runner.go), so experiments can execute concurrently and still be
// reported in paper order. The ctx cancels or times out a run: sweep-style
// experiments built on ForEachPoint stop scheduling new points once ctx is
// done (their partial result is then discarded by the Runner).
type Experiment struct {
	ID   string
	Name string
	Run  func(ctx context.Context) Result
}

// bare adapts an experiment function that has no cancellation points.
func bare(fn func() Result) func(context.Context) Result {
	return func(context.Context) Result { return fn() }
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Sidecar CPU usage vs end-to-end latency", func(ctx context.Context) Result { return Fig02SidecarCPULatency(ctx) }},
		{"fig3", "#Sidecars growth for a major customer", bare(func() Result { return Fig03SidecarGrowth() })},
		{"fig4", "Controller CPU usage and pod update time", bare(func() Result { return Fig04ControllerCPU() })},
		{"fig5", "CPU usage of Istio and Ambient", func(ctx context.Context) Result { return Fig05IstioAmbientCPU(ctx) }},
		{"table1", "Resource usage of Istio in production", bare(func() Result { return Tab01SidecarResources() })},
		{"table2", "Configuration update frequency by cluster", bare(func() Result { return Tab02UpdateFrequency() })},
		{"table3", "Proportion of users enabling L7 features", bare(func() Result { return Tab03L7Adoption() })},
		{"fig10", "Latency under light workloads", func(ctx context.Context) Result { return Fig10LightLatency(ctx) }},
		{"fig11", "Latency under changing workloads (throughput knees)", func(ctx context.Context) Result { return Fig11ThroughputKnee(ctx) }},
		{"fig12", "CPU usage saving with crypto offloading", func(ctx context.Context) Result { return Fig12CryptoOffloadCPU(ctx) }},
		{"fig13", "CPU usage of Istio, Ambient and Canal", func(ctx context.Context) Result { return Fig13CPUComparison(ctx) }},
		{"fig14", "Configuration completion time", bare(func() Result { return Fig14ConfigCompletion() })},
		{"fig15", "Southbound bandwidth overhead", bare(func() Result { return Fig15SouthboundBandwidth() })},
		{"configpush", "Delta vs full config push under region-scale churn", func(ctx context.Context) Result { return ConfigChurn(ctx) }},
		{"policy", "Compiled intention dispatch tables at scale", func(ctx context.Context) Result { return PolicyScale(ctx) }},
		{"fed-evac", "Region evacuation: WAN spillover vs no federation", func(ctx context.Context) Result { return FedEvac(ctx) }},
		{"fed-split", "Partitioned region: split-brain window and resync", func(ctx context.Context) Result { return FedSplit(ctx) }},
		{"fig16", "Noisy neighbor isolation", bare(func() Result { return Fig16NoisyNeighbor() })},
		{"admission", "Flash crowd with admission control off vs on", func(ctx context.Context) Result { return AdmissionFlashCrowd(ctx) }},
		{"fig17", "CDF of completion time of Reuse and New", func(ctx context.Context) Result { return Fig17ScalingCDF(ctx) }},
		{"table4", "Reuse and New event timelines", bare(func() Result { return Tab04ScalingTimeline() })},
		{"fig18", "Occurrences of Reuse and New over a month", bare(func() Result { return Fig18ScalingOccurrences() })},
		{"fig19", "Backend combinations from shuffle sharding", bare(func() Result { return Fig19ShuffleSharding() })},
		{"fig20", "Daily operational data", bare(func() Result { return Fig20DailyOps() })},
		{"table5", "Cost reduction by redirector and tunneling", bare(func() Result { return Tab05CostReduction() })},
		{"table6", "Excessive health checks vs app traffic", bare(func() Result { return Tab06HealthCheckExcess() })},
		{"table7", "Health check reduction by aggregation", bare(func() Result { return Tab07HealthCheckReduction() })},
		{"fig21", "Traffic redirection with iptables (path costs)", bare(func() Result { return Fig21IptablesPath() })},
		{"fig22", "Context switch frequency of eBPF vs iptables", bare(func() Result { return Fig22ContextSwitches() })},
		{"fig23", "Crypto completion time remote/local/none", bare(func() Result { return Fig23CryptoCompletion() })},
		{"fig24", "End-to-end latency distribution in production", bare(func() Result { return Fig24LatencyDistribution() })},
		{"fig25", "AVX-512 performance vs concurrent connections", bare(func() Result { return Fig25BatchDegradation() })},
		{"fig26", "Session consistency maintenance with redirector", bare(func() Result { return Fig26SessionConsistency() })},
		{"fig27", "Throughput improvement with crypto offloading", func(ctx context.Context) Result { return Fig27OffloadThroughput(ctx) }},
		{"fig28", "Latency improvement with crypto offloading", func(ctx context.Context) Result { return Fig28OffloadLatency(ctx) }},
		{"fig29", "Throughput improvement with eBPF", bare(func() Result { return Fig29EBPFThroughput() })},
		{"fig30", "Latency improvement with eBPF", bare(func() Result { return Fig30EBPFLatency() })},
	}
}
