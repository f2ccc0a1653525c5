package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the single entry point for executing experiments: a
// worker-pool Runner that runs them concurrently, captures each structured
// Result off-thread, and hands finished results back in deterministic paper
// order. Concurrency is safe because every experiment builds its own seeded
// Scenario/Sim — nothing is shared between workers — and PR 2's canalvet
// determinism invariants guarantee a given experiment renders byte-identical
// output no matter when or on which goroutine it runs. Wall-clock reads in
// this file are diagnostic only (per-experiment timing, aggregate speedup);
// they never enter a rendered Result.

// Options configures a Runner pass.
type Options struct {
	// Parallel is the number of experiments run concurrently. Values <= 0
	// mean min(GOMAXPROCS, #experiments) — enough workers to fill the
	// machine without oversubscribing a short experiment list.
	Parallel int
	// Timeout bounds each experiment's wall-clock run time; 0 means no
	// bound. A timed-out experiment is recorded with Err set (its goroutine
	// is abandoned, so the process should exit soon after the pass).
	Timeout time.Duration
	// Emit, when non-nil, receives each finished result in experiment order
	// (paper order): result i is delivered as soon as it AND every earlier
	// experiment have finished, so output streams deterministically even
	// though execution is concurrent.
	Emit func(ExperimentResult)
}

// ExperimentResult captures one experiment's outcome.
type ExperimentResult struct {
	ID   string
	Name string
	// Result is the structured Table/Series; Rendered is Result.String(),
	// rendered off-thread inside the worker so emission is a pure write.
	Result   Result
	Rendered string
	// Wall is the experiment's own wall-clock run time.
	Wall time.Duration
	// Err is non-nil when the experiment was cancelled, timed out or
	// panicked.
	Err error
}

// Report is the outcome of one Runner pass over an experiment list.
type Report struct {
	// Parallel is the effective worker count used.
	Parallel int
	// Results holds one entry per input experiment, in input (paper) order.
	Results []ExperimentResult
	// Wall is the wall-clock time of the whole pass.
	Wall time.Duration
}

// SerialWall is the sum of per-experiment wall times — the time a serial
// pass over the same work would have taken.
func (r *Report) SerialWall() time.Duration {
	var sum time.Duration
	for _, res := range r.Results {
		sum += res.Wall
	}
	return sum
}

// Speedup is the aggregate speedup versus a serial pass (SerialWall/Wall).
func (r *Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 1
	}
	return float64(r.SerialWall()) / float64(r.Wall)
}

// Failed returns the results whose experiments errored (cancel, timeout
// or panic).
func (r *Report) Failed() []ExperimentResult {
	var out []ExperimentResult
	for _, res := range r.Results {
		if res.Err != nil {
			out = append(out, res)
		}
	}
	return out
}

// timingEntry is one experiment's row in the machine-readable report.
type timingEntry struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// timingReport is the machine-readable shape behind Report.TimingJSON.
type timingReport struct {
	Parallel    int           `json:"parallel"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	WallMS      float64       `json:"wall_ms"`
	SerialSumMS float64       `json:"serial_sum_ms"`
	Speedup     float64       `json:"speedup_vs_serial"`
	Experiments []timingEntry `json:"experiments"`
}

// TimingJSON exports the pass's timings — per-experiment wall time plus the
// aggregate speedup versus a serial pass — for CI artifacts and tooling.
func (r *Report) TimingJSON() ([]byte, error) {
	out := timingReport{
		Parallel:    r.Parallel,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		WallMS:      float64(r.Wall) / float64(time.Millisecond),
		SerialSumMS: float64(r.SerialWall()) / float64(time.Millisecond),
		Speedup:     r.Speedup(),
		Experiments: make([]timingEntry, 0, len(r.Results)),
	}
	for _, res := range r.Results {
		e := timingEntry{ID: res.ID, Name: res.Name, WallMS: float64(res.Wall) / float64(time.Millisecond)}
		if res.Err != nil {
			e.Error = res.Err.Error()
		}
		out.Experiments = append(out.Experiments, e)
	}
	return json.MarshalIndent(out, "", "  ")
}

// Runner executes experiment lists on a bounded worker pool.
type Runner struct {
	opts Options
}

// NewRunner builds a Runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts}
}

// Run executes the experiments and returns a Report whose Results are in
// input order. Cancelling ctx stops feeding new experiments and records
// ctx's error on every experiment that did not complete.
func (r *Runner) Run(ctx context.Context, exps []Experiment) *Report {
	n := len(exps)
	workers := r.opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]ExperimentResult, n)
	finished := make([]bool, n)
	var mu sync.Mutex
	next := 0
	// record marks index i done and emits the contiguous finished prefix, so
	// Emit observes strictly increasing indices regardless of completion
	// order.
	record := func(i int, res ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		finished[i] = true
		for next < n && finished[next] {
			if r.opts.Emit != nil {
				r.opts.Emit(results[next])
			}
			next++
		}
	}

	start := time.Now() //canal:allow simdeterminism diagnostic pass timing only; never enters rendered results
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				record(i, r.runOne(ctx, exps[i]))
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	return &Report{
		Parallel: workers,
		Results:  results,
		Wall:     time.Since(start), //canal:allow simdeterminism diagnostic pass timing only; never enters rendered results
	}
}

// runOne executes a single experiment under the per-experiment timeout and
// renders its result off-thread.
func (r *Runner) runOne(ctx context.Context, e Experiment) ExperimentResult {
	res := ExperimentResult{ID: e.ID, Name: e.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	tctx := ctx
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}

	type outcome struct {
		result   Result
		rendered string
		panicked *panicError
	}
	done := make(chan outcome, 1)
	start := time.Now() //canal:allow simdeterminism diagnostic per-experiment timing only; never enters rendered results
	go func() {
		// A panicking experiment fails alone: its panic becomes its Err and
		// the rest of the pass is still reported.
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{panicked: recovered(p)}
			}
		}()
		out := e.Run(tctx)
		o := outcome{result: out}
		if out != nil {
			o.rendered = out.String()
		}
		done <- o
	}()
	select {
	case o := <-done:
		res.Result, res.Rendered = o.result, o.rendered
		if o.panicked != nil {
			res.Err = fmt.Errorf("experiment %s: %w", e.ID, o.panicked)
		} else if err := tctx.Err(); err != nil {
			// The experiment returned, but only because cancellation made it
			// cut its sweep short: its result is partial, not reportable.
			res.Err = err
		} else if o.result == nil {
			res.Err = fmt.Errorf("experiment %s returned no result", e.ID)
		}
	case <-tctx.Done():
		// The experiment ignored cancellation (most sim loops are not
		// interruptible mid-run); abandon its goroutine and report the error.
		res.Err = tctx.Err()
	}
	res.Wall = time.Since(start) //canal:allow simdeterminism diagnostic per-experiment timing only; never enters rendered results
	return res
}
