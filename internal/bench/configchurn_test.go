package bench

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// smallChurnSpec keeps the determinism tests fast while preserving every
// scenario ingredient (rolling deploy, background churn, route updates).
func smallChurnSpec() ConfigChurnSpec {
	return ConfigChurnSpec{
		Nodes:           120,
		Services:        10,
		PodsPerService:  6,
		RollingServices: 3,
		ChurnWindow:     30 * time.Second,
		Debounce:        2 * time.Second,
		Seed:            42,
	}
}

// TestConfigChurnByteDeterminism runs the whole churn grid twice and
// demands byte-identical table text and JSON: the scenario is a pure
// function of its spec.
func TestConfigChurnByteDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		tab, rep := ConfigChurnResult(context.Background(), smallChurnSpec())
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return tab.String(), js
	}
	t1, j1 := run()
	t2, j2 := run()
	if t1 != t2 {
		t.Errorf("table text differs between identical runs:\n--- run1\n%s\n--- run2\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON report differs between identical runs")
	}
}

// TestConfigChurnDeltaReductionAtRegionScale is the acceptance check: at
// 1000+ nodes under rolling-deploy churn, delta pushes must cut southbound
// bytes by at least 5x versus the full-push baseline for every
// architecture, with convergence fully settled after drain. It also pins
// the report byte for byte against the checked-in BENCH_configpush.json,
// and regenerates it under CANAL_UPDATE_BENCH=1.
func TestConfigChurnDeltaReductionAtRegionScale(t *testing.T) {
	if testing.Short() {
		t.Skip("region-scale run skipped in -short mode")
	}
	spec := DefaultConfigChurnSpec()
	if spec.Nodes < 1000 {
		t.Fatalf("default spec has %d nodes, acceptance requires 1000+", spec.Nodes)
	}
	_, rep := ConfigChurnResult(context.Background(), spec)
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 architectures x 2 modes)", len(rep.Rows))
	}
	for _, arch := range []string{"istio", "ambient", "canal"} {
		ratio, ok := rep.FullOverDelta[arch]
		if !ok {
			t.Errorf("%s: missing full/delta ratio", arch)
			continue
		}
		if ratio < 5 {
			t.Errorf("%s: full/delta byte ratio = %.2f, want >= 5", arch, ratio)
		}
	}
	for _, row := range rep.Rows {
		if row.Unconverged != 0 {
			t.Errorf("%s/%s: %d versions unconverged after drain", row.Arch, row.Mode, row.Unconverged)
		}
		if row.ConvergeP99MS <= 0 || row.StaleP99MS <= 0 {
			t.Errorf("%s/%s: degenerate metrics: conv p99 %.1fms stale p99 %.1fms",
				row.Arch, row.Mode, row.ConvergeP99MS, row.StaleP99MS)
		}
		if row.Mode == "delta" && row.Arch != "istio" && row.ResyncBytes != 0 {
			t.Errorf("%s/delta: resync bytes = %d, want 0 (static subscriber set)", row.Arch, row.ResyncBytes)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pinReport(t, "BENCH_configpush.json", js)
}
