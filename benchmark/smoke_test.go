package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, scaled down, must run both ways, check its outputs and
// end with a well-formed result line.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var out bytes.Buffer
			o := options{workload: wl.name, seed: 3, seconds: 0.5, scale: 0.01,
				traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
			if err := run(o, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %+v", d.name, v)
				}
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("per-layer metric %s = %+v", d.name, v)
				}
			}
			if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// reports, with the same units.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if c.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q, the program has %q", i, c.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, %d in the program", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d is %+v, the program has %+v", kind, i, listed[i], d)
			}
		}
	}
	same("end-to-end", c.EndToEnd, endToEnd)
	same("per-layer", c.PerLayer, perLayer)
}
