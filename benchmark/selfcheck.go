package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// apart is how far two readings of one metric lie from each other, as a
// share of the smaller. Readings that are missing or not positive are
// infinitely far apart: every end-to-end metric is above zero on every
// workload.
func apart(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if !(lo > 0) {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// selfcheck runs each workload's end-to-end measurement twice, each time in
// a process of its own so that peak memory is that run's, and fails when the
// two readings of a metric differ, either way, by more than its bound.
func selfcheck(o options, w io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var broken []string
	for _, wl := range bf.Workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		var runs [2]result
		for i := range runs {
			if runs[i], err = runChild(exe, wl.Name, o.seed, bf.RunSeconds); err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			d := apart(a, b)
			verdict := "ok"
			if d > m.Bound {
				verdict = "BEYOND BOUND"
				broken = append(broken, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  apart by %6.2f%% (bound %.0f%%) %s\n",
				wl.Name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	if len(broken) > 0 {
		sort.Strings(broken)
		return fmt.Errorf("two runs of the same code differ by more than the bound on %v", broken)
	}
	return nil
}

// runChild runs one untraced measurement in a child process and parses the
// result line it prints last.
func runChild(exe, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("child run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("child run's result line: %w", err)
	}
	return res, nil
}
