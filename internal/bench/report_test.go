package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// reportTests names, for each checked-in BENCH_*.json report at the module
// root, the one test that pins it. Run with CANAL_UPDATE_BENCH=1 set, that
// test rewrites the file instead of comparing against it; it is the
// report's only regeneration path. (BENCH_hotpath.json has its own layout
// and is regenerated the same way by TestHotPathAllocs.)
var reportTests = map[string]string{
	"BENCH_configpush.json": "TestConfigChurnDeltaReductionAtRegionScale",
	"BENCH_federation.json": "TestFederationBaseline",
	"BENCH_policy.json":     "TestPolicyScaleDeterministic",
	"BENCH_trace.json":      "TestTraceExperimentDeterministic",
}

// updateReports reports whether this run regenerates the checked-in reports.
func updateReports() bool { return os.Getenv("CANAL_UPDATE_BENCH") != "" }

// regenCommand is the command that regenerates the report file.
func regenCommand(file string) string {
	return "CANAL_UPDATE_BENCH=1 go test -run '^" + reportTests[file] + "$' ./internal/bench"
}

// readReport returns the checked-in report file.
func readReport(t *testing.T, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatalf("missing %s (regenerate with %s): %v", file, regenCommand(file), err)
	}
	return data
}

// writeReport replaces the checked-in report file with got.
func writeReport(t *testing.T, file string, got []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join("..", "..", file), got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", file)
}

// pinReport compares got byte for byte with the checked-in report file, or
// rewrites the file when the run regenerates reports. Every byte of such a
// report derives from virtual time and seeded draws, so any drift is a
// behaviour change to review, then regenerate.
func pinReport(t *testing.T, file string, got []byte) {
	t.Helper()
	if updateReports() {
		writeReport(t, file, got)
		return
	}
	if want := readReport(t, file); !bytes.Equal(want, got) {
		t.Errorf("report drifted from %s; review, then regenerate with %s:\n%s", file, regenCommand(file), got)
	}
}
