package bench

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(context.Background())
			if res == nil {
				t.Fatal("nil result")
			}
			if res.String() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

func TestFig2LatencyRisesWithUtilization(t *testing.T) {
	s := Fig02SidecarCPULatency(context.Background())
	l := s.Get("istio-sidecar")
	if l == nil || len(l.Y) < 4 {
		t.Fatal("missing data")
	}
	first, last := l.Y[0], l.Y[len(l.Y)-1]
	if last < 3*first {
		t.Errorf("latency should spike at high utilization: %.3f -> %.3f ms", first, last)
	}
}

func TestFig3Doubles(t *testing.T) {
	s := Fig03SidecarGrowth()
	l := s.Get("sidecars")
	growth := l.Y[len(l.Y)-1] / l.Y[0]
	if growth < 1.8 || growth > 2.6 {
		t.Errorf("2-year growth = %.2fx, want ~2x", growth)
	}
}

func TestFig10Ordering(t *testing.T) {
	tb := Fig10LightLatency(context.Background())
	lat := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		lat[row[0]] = v
	}
	if !(lat["none"] < lat["canal"] && lat["canal"] < lat["ambient"] && lat["ambient"] < lat["istio"]) {
		t.Errorf("ordering violated: %v", lat)
	}
}

func TestFig11Knees(t *testing.T) {
	s := Fig11ThroughputKnee(context.Background())
	if len(s.Notes) == 0 || !strings.Contains(s.Notes[0], "knees") {
		t.Fatal("missing knee note")
	}
	// Every line must eventually blow past 20ms (saturation observed).
	for _, l := range s.Lines {
		if maxY(&l) < 20 {
			t.Errorf("%s never saturates in the sweep", l.Name)
		}
	}
}

func TestFig12OffloadSavesCPU(t *testing.T) {
	s := Fig12CryptoOffloadCPU(context.Background())
	no, loc, rem := s.Get("no-offload"), s.Get("local-offload"), s.Get("remote-offload")
	last := len(no.Y) - 1
	if !(rem.Y[last] < no.Y[last] && loc.Y[last] < no.Y[last]) {
		t.Errorf("offloading must reduce proxy CPU: no=%v local=%v remote=%v", no.Y[last], loc.Y[last], rem.Y[last])
	}
	if rem.Y[last] > loc.Y[last] {
		t.Errorf("remote offload should save at least as much as local: %v vs %v", rem.Y[last], loc.Y[last])
	}
	saving := 1 - rem.Y[last]/no.Y[last]
	if saving < 0.5 {
		t.Errorf("remote saving = %.0f%%, want >= 50%% (paper 62-70%%)", saving*100)
	}
}

func TestFig13UserCPUOrdering(t *testing.T) {
	s := Fig13CPUComparison(context.Background())
	i, a, c := s.Get("istio (user)"), s.Get("ambient (user)"), s.Get("canal (user)")
	last := len(c.Y) - 1
	if !(c.Y[last] < a.Y[last] && a.Y[last] < i.Y[last]) {
		t.Errorf("user CPU ordering violated: canal=%v ambient=%v istio=%v", c.Y[last], a.Y[last], i.Y[last])
	}
	if i.Y[last]/c.Y[last] < 4 {
		t.Errorf("istio/canal = %.1fx, want >= 4 (paper 12-19x)", i.Y[last]/c.Y[last])
	}
}

func TestFig14CompletionOrdering(t *testing.T) {
	s := Fig14ConfigCompletion()
	i, a, c := s.Get("istio"), s.Get("ambient"), s.Get("canal")
	for k := range c.Y {
		if !(c.Y[k] < a.Y[k] && a.Y[k] < i.Y[k]) {
			t.Errorf("at %v pods: canal=%v ambient=%v istio=%v", c.X[k], c.Y[k], a.Y[k], i.Y[k])
		}
	}
}

func TestFig15BandwidthRatios(t *testing.T) {
	tb := Fig15SouthboundBandwidth()
	var canal, ambient, istio float64
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "canal":
			canal = v
		case "ambient":
			ambient = v
		case "istio":
			istio = v
		}
	}
	if istio/canal < 5 {
		t.Errorf("istio/canal = %.1fx, want >= 5 (paper 9.8x)", istio/canal)
	}
	if ambient/canal < 2 {
		t.Errorf("ambient/canal = %.1fx, want >= 2 (paper 4.6x)", ambient/canal)
	}
}

func TestFig16RecoversAndIsolates(t *testing.T) {
	s := Fig16NoisyNeighbor()
	cpu := s.Get("backend-cpu (%)")
	if cpu == nil {
		t.Fatal("missing cpu line")
	}
	peak, final := 0.0, cpu.Y[len(cpu.Y)-1]
	for _, v := range cpu.Y {
		if v > peak {
			peak = v
		}
	}
	if peak < 65 {
		t.Errorf("backend should have been overloaded: peak %.0f%%", peak)
	}
	if final > peak-20 {
		t.Errorf("scaling should have recovered the backend: peak %.0f%% final %.0f%%", peak, final)
	}
	// The victim's latency stays bounded throughout.
	lat := s.Get("victim-latency (ms)")
	if m := maxY(lat); m > 50 {
		t.Errorf("victim latency spiked to %.1fms; isolation failed", m)
	}
	if !strings.Contains(s.Notes[0], "victim errors = 0") {
		t.Errorf("victim should see zero errors: %s", s.Notes[0])
	}
}

// TestFig16RootCauseNamesNoisyService pins the §4.3 claim Fig 16 makes:
// every alert runs root-cause analysis over the hot backend's own samples,
// and every analysis succeeds and names the surging service. The figure
// panics on an alert whose analysis fails or names another service.
func TestFig16RootCauseNamesNoisyService(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("fig16 alert loop: %v", r)
		}
	}()
	s := Fig16NoisyNeighbor()
	if !strings.Contains(s.Notes[0], " Reuse operations") || strings.Contains(s.Notes[0], "after 0 Reuse") {
		t.Fatalf("fig16 ran no root-cause-driven operation: %q", s.Notes[0])
	}
}

func TestFig17P50Separation(t *testing.T) {
	s := Fig17ScalingCDF(context.Background())
	reuse, newer := s.Get("reuse"), s.Get("new")
	// The third point of each line is the P50.
	p50r, p50n := reuse.X[2], newer.X[2]
	if p50r < 25 || p50r > 120 {
		t.Errorf("reuse P50 = %.0fs, want ~55s", p50r)
	}
	if p50n < 10*60 || p50n > 25*60 {
		t.Errorf("new P50 = %.0fs, want ~17min", p50n)
	}
}

func TestFig18ReuseDominates(t *testing.T) {
	s := Fig18ScalingOccurrences()
	var reuse, newer float64
	for _, y := range s.Get("reuse").Y {
		reuse += y
	}
	for _, y := range s.Get("new").Y {
		newer += y
	}
	if reuse < 5*newer {
		t.Errorf("reuse (%v) should dominate new (%v)", reuse, newer)
	}
}

func TestFig19IsolationVsNaive(t *testing.T) {
	tb := Fig19ShuffleSharding()
	if !strings.Contains(tb.Notes[0], "full-overlap pairs 0") {
		t.Errorf("shuffle should have zero full overlaps: %s", tb.Notes[0])
	}
	if !strings.Contains(tb.Notes[1], "lost 20 of 20") {
		t.Errorf("naive ablation should lose everyone: %s", tb.Notes[1])
	}
}

func TestFig20NoErrorSpikes(t *testing.T) {
	s := Fig20DailyOps()
	rps, errs := s.Get("rps"), s.Get("error-codes")
	if rps == nil || errs == nil {
		t.Fatal("missing lines")
	}
	// Error rate stays a small, roughly constant fraction of RPS.
	for k := range errs.Y {
		if rps.Y[k] > 100 && errs.Y[k] > 0.05*rps.Y[k] {
			t.Errorf("hour %v: error share %.2f%% too high", errs.X[k], errs.Y[k]/rps.Y[k]*100)
		}
	}
}

func TestTab05SavingsInPaperRanges(t *testing.T) {
	red, tun, both := CostSavings(DefaultRegionProfile())
	if red < 0.30 || red > 0.50 {
		t.Errorf("redirector saving = %.1f%%, want 32-48%%", red*100)
	}
	if tun < 0.25 || tun > 0.50 {
		t.Errorf("tunneling saving = %.1f%%, want 32-45%%", tun*100)
	}
	if both < 0.50 || both > 0.80 {
		t.Errorf("combined saving = %.1f%%, want 55-70%%", both*100)
	}
	if both <= red || both <= tun {
		t.Error("combined must beat each individual technique")
	}
}

func TestTab06WorstRatioLarge(t *testing.T) {
	tb := Tab06HealthCheckExcess()
	if !strings.Contains(tb.Notes[0], "x") {
		t.Fatal("missing ratio note")
	}
	// Case1's ratio must be in the hundreds (paper: 515x).
	ratio := tb.Rows[0][3]
	v, err := strconv.ParseFloat(strings.TrimSuffix(ratio, "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 100 {
		t.Errorf("Case1 ratio = %v, want hundreds", ratio)
	}
}

func TestTab07MinimumReduction(t *testing.T) {
	tb := Tab07HealthCheckReduction()
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 99.5 {
			t.Errorf("%s reduction = %v%%, want >= 99.5%%", row[0], v)
		}
	}
}

func TestFig23RemoteStable(t *testing.T) {
	s := Fig23CryptoCompletion()
	rem := s.Get("remote-offload")
	for i := 1; i < len(rem.Y); i++ {
		if rem.Y[i] != rem.Y[0] {
			t.Error("remote completion should be flat across workloads")
		}
	}
	no := s.Get("no-offload")
	if rem.Y[0] >= no.Y[0] {
		t.Error("remote offload should beat software crypto")
	}
}

func TestFig24Bimodal(t *testing.T) {
	// The 40-50ms and 100-200ms application modes must land in different
	// doubling buckets, with the fast mode holding its ~55% share.
	rows := Fig24LatencyDistribution().Rows
	want := [][]string{{"40.96-81.92", "54.5%"}, {"81.92-163.84", "28.3%"}, {"163.84-327.68", "17.2%"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("fig24 rows = %v, want %v", rows, want)
	}
}

func TestFig25Crossover(t *testing.T) {
	s := Fig25BatchDegradation()
	avx, soft := s.Get("avx512"), s.Get("software")
	// Below the batch size of 8, acceleration loses; at 8+, it wins.
	if avx.Y[0] <= soft.Y[0] {
		t.Error("1 concurrent connection: AVX-512 should be slower than software")
	}
	last := len(avx.Y) - 1
	if avx.Y[last] >= soft.Y[last] {
		t.Error("full batches: AVX-512 should win")
	}
}

func TestFig27ThroughputImproves(t *testing.T) {
	s := Fig27OffloadThroughput(context.Background())
	off, no := s.Get("offload"), s.Get("no-offload")
	for k := range off.Y {
		if off.Y[k] <= no.Y[k] {
			t.Errorf("cores=%v: offload %v should beat no-offload %v", off.X[k], off.Y[k], no.Y[k])
		}
	}
}

func TestFig28LatencyImproves(t *testing.T) {
	s := Fig28OffloadLatency(context.Background())
	off, no := s.Get("offload"), s.Get("no-offload")
	for k := range off.Y {
		if off.Y[k] >= no.Y[k] {
			t.Errorf("rps=%v: offload latency %v should beat %v", off.X[k], off.Y[k], no.Y[k])
		}
	}
}

func TestFig29And30EBPFWins(t *testing.T) {
	s29 := Fig29EBPFThroughput()
	eb, ip := s29.Get("eBPF"), s29.Get("iptables")
	for k := range eb.Y {
		if eb.Y[k] <= ip.Y[k] {
			t.Errorf("size %v: eBPF throughput should win", eb.X[k])
		}
	}
	s30 := Fig30EBPFLatency()
	eb30, ip30 := s30.Get("eBPF"), s30.Get("iptables")
	for k := range eb30.Y {
		if eb30.Y[k] >= ip30.Y[k] {
			t.Errorf("size %v: eBPF latency should win", eb30.X[k])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRow("hello", 3.10)
	tb.Notes = append(tb.Notes, "n")
	s := tb.String()
	for _, want := range []string{"hello", "3.1", "note: n", "a", "bb"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := &Series{ID: "x", Title: "T"}
	s.Add("l", 1, 2)
	s.Add("l", 3, 4)
	if l := s.Get("l"); l == nil || len(l.X) != 2 {
		t.Fatal("Add/Get broken")
	}
	if s.Get("missing") != nil {
		t.Error("missing line should be nil")
	}
	if !strings.Contains(s.String(), "(1, 2)") {
		t.Error("rendering broken")
	}
}
