package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// gated returns an experiment that signals on started, then blocks until
// release is closed before returning a one-row table. Gates let the tests
// force completion orders without touching the wall clock.
func gated(id string, started chan<- string, release <-chan struct{}) Experiment {
	return Experiment{ID: id, Name: "gated " + id, Run: func(ctx context.Context) Result {
		started <- id
		<-release
		t := &Table{ID: id, Title: id, Headers: []string{"v"}}
		t.AddRow(id)
		return t
	}}
}

func TestRunnerEmitsInPaperOrder(t *testing.T) {
	// Four experiments complete in reverse order; Emit must still observe
	// them in input (paper) order.
	ids := []string{"e0", "e1", "e2", "e3"}
	started := make(chan string, len(ids))
	releases := make([]chan struct{}, len(ids))
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		releases[i] = make(chan struct{})
		exps[i] = gated(id, started, releases[i])
	}
	var emitted []string
	r := NewRunner(Options{Parallel: len(ids), Emit: func(res ExperimentResult) {
		emitted = append(emitted, res.ID)
	}})
	go func() {
		for range ids {
			<-started // all four are in flight
		}
		for i := len(releases) - 1; i >= 0; i-- {
			close(releases[i]) // finish e3 first, e0 last
		}
	}()
	report := r.Run(context.Background(), exps)
	if got := strings.Join(emitted, ","); got != "e0,e1,e2,e3" {
		t.Errorf("emit order = %s, want paper order", got)
	}
	if len(report.Results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(report.Results), len(ids))
	}
	for i, res := range report.Results {
		if res.ID != ids[i] {
			t.Errorf("result %d = %s, want %s (input order)", i, res.ID, ids[i])
		}
		if res.Err != nil {
			t.Errorf("%s: unexpected error %v", res.ID, res.Err)
		}
		if !strings.Contains(res.Rendered, res.ID) {
			t.Errorf("%s: rendering not captured off-thread: %q", res.ID, res.Rendered)
		}
	}
}

func trivial(id string) Experiment {
	return Experiment{ID: id, Name: id, Run: func(ctx context.Context) Result {
		tb := &Table{ID: id, Title: id, Headers: []string{"v"}}
		tb.AddRow(1)
		return tb
	}}
}

func TestRunnerWorkerCounts(t *testing.T) {
	exps := []Experiment{trivial("a"), trivial("b"), trivial("c")}
	// Explicit parallelism is clamped to the experiment count.
	if got := NewRunner(Options{Parallel: 7}).Run(context.Background(), exps).Parallel; got != 3 {
		t.Errorf("Parallel=7 over 3 experiments: effective %d, want 3", got)
	}
	if got := NewRunner(Options{Parallel: 2}).Run(context.Background(), exps).Parallel; got != 2 {
		t.Errorf("Parallel=2: effective %d, want 2", got)
	}
	// Default (<=0) never exceeds the experiment count either.
	if got := NewRunner(Options{}).Run(context.Background(), exps[:1]).Parallel; got != 1 {
		t.Errorf("default parallelism over 1 experiment: effective %d, want 1", got)
	}
}

// TestRunnerTimeout also pins the two obligations the runner has towards an
// experiment it abandons: the experiment's context is cancelled (so a sweep
// that honours ctx stops), and the goroutine running it exits once the
// experiment returns (its result send must not park forever).
func TestRunnerTimeout(t *testing.T) {
	release := make(chan struct{})
	seen := make(chan context.Context, 1)
	exps := []Experiment{{ID: "stuck", Name: "stuck", Run: func(ctx context.Context) Result {
		seen <- ctx
		<-release
		return trivial("stuck").Run(ctx)
	}}}
	report := NewRunner(Options{Timeout: 5 * time.Millisecond}).Run(context.Background(), exps)
	if ctx := <-seen; ctx.Err() == nil {
		t.Error("the abandoned experiment's context was not cancelled")
	}
	close(release)
	for i := 0; runOneGoroutines() > 0; i++ {
		if i == 10000 {
			t.Fatal("the abandoned experiment returned but its runner goroutine never exited")
		}
		runtime.Gosched()
	}
	res := report.Results[0]
	if res.Err == nil {
		t.Fatal("timed-out experiment should carry an error")
	}
	if res.Err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", res.Err)
	}
	if failed := report.Failed(); len(failed) != 1 || failed[0].ID != "stuck" {
		t.Errorf("Failed() = %v, want the stuck experiment", failed)
	}
}

// runOneGoroutines counts the live goroutines Runner.runOne started.
func runOneGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "bench.(*Runner).runOne in goroutine")
}

func TestRunnerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report := NewRunner(Options{}).Run(ctx, []Experiment{trivial("a"), trivial("b")})
	for _, res := range report.Results {
		if res.Err == nil {
			t.Errorf("%s: cancelled run should record an error", res.ID)
		}
	}
}

func TestRunnerNilResult(t *testing.T) {
	exps := []Experiment{{ID: "nil", Name: "nil", Run: func(ctx context.Context) Result { return nil }}}
	res := NewRunner(Options{}).Run(context.Background(), exps).Results[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), "no result") {
		t.Errorf("nil result should be an error, got %v", res.Err)
	}
}

func TestTimingJSONShape(t *testing.T) {
	exps := []Experiment{trivial("a"), trivial("b")}
	report := NewRunner(Options{Parallel: 2}).Run(context.Background(), exps)
	data, err := report.TimingJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Parallel    int     `json:"parallel"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		WallMS      float64 `json:"wall_ms"`
		SerialSumMS float64 `json:"serial_sum_ms"`
		Speedup     float64 `json:"speedup_vs_serial"`
		Experiments []struct {
			ID     string  `json:"id"`
			WallMS float64 `json:"wall_ms"`
			Error  string  `json:"error,omitempty"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if out.Parallel != 2 || out.GOMAXPROCS < 1 || len(out.Experiments) != 2 {
		t.Errorf("report shape wrong: %+v", out)
	}
	if out.Experiments[0].ID != "a" || out.Experiments[1].ID != "b" {
		t.Errorf("experiments out of order: %+v", out.Experiments)
	}
	if out.Speedup <= 0 {
		t.Errorf("speedup = %v, want > 0", out.Speedup)
	}
}

func TestForEachPointCoversAllIndices(t *testing.T) {
	hit := make([]int, 50)
	ForEachPoint(context.Background(), len(hit), func(i int) {
		hit[i]++ // index-keyed slot: no two points share i
	})
	for i, n := range hit {
		if n != 1 {
			t.Errorf("point %d ran %d times, want exactly once", i, n)
		}
	}
}

func TestForEachPointSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	ForEachPoint(ctx, 10, func(i int) { ran = true })
	if ran {
		t.Error("points should not start once ctx is cancelled")
	}
}

// TestForEachPointReraisesPanic: a panicking point does not kill the
// process from its worker. Every point still runs, and the lowest-indexed
// point's panic is raised again on the caller's goroutine.
func TestForEachPointReraisesPanic(t *testing.T) {
	ran := make([]bool, 8)
	defer func() {
		pe, ok := recover().(*panicError)
		if !ok {
			t.Fatalf("recovered %T, want *panicError", pe)
		}
		if pe.value != "point 3" {
			t.Errorf("re-raised %v, want the lowest-indexed point's panic", pe.value)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("point %d never ran", i)
			}
		}
	}()
	ForEachPoint(context.Background(), len(ran), func(i int) {
		ran[i] = true
		if i == 3 || i == 6 {
			panic(fmt.Sprint("point ", i))
		}
	})
	t.Fatal("ForEachPoint returned normally after a point panicked")
}

// sweepPointFails is the panicking point of TestRunnerRecordsPanics: a named
// frame the recorded error must still show.
func sweepPointFails() { panic("sweep point failed") }

// TestRunnerRecordsPanics: an experiment that panics, on its own goroutine
// or inside one of its ForEachPoint points, fails alone. The panic, with the
// stack it began on, is that experiment's Err, and the experiments around
// it are still reported, at any parallelism.
func TestRunnerRecordsPanics(t *testing.T) {
	exps := []Experiment{
		trivial("before"),
		{ID: "direct", Name: "direct", Run: func(context.Context) Result { panic("experiment failed") }},
		{ID: "point", Name: "point", Run: func(ctx context.Context) Result {
			ForEachPoint(ctx, 4, func(i int) {
				if i == 2 {
					sweepPointFails()
				}
			})
			return trivial("point").Run(ctx)
		}},
		trivial("after"),
	}
	for _, parallel := range []int{1, 4} {
		report := NewRunner(Options{Parallel: parallel}).Run(context.Background(), exps)
		for _, res := range report.Results {
			switch res.ID {
			case "before", "after":
				if res.Err != nil || res.Rendered == "" {
					t.Errorf("parallel %d: %s was not reported beside the panics: err %v", parallel, res.ID, res.Err)
				}
			case "direct":
				if res.Err == nil || !strings.Contains(res.Err.Error(), "panic: experiment failed") {
					t.Errorf("parallel %d: direct panic recorded as %v", parallel, res.Err)
				}
			case "point":
				if res.Err == nil || !strings.Contains(res.Err.Error(), "panic: sweep point failed") ||
					!strings.Contains(res.Err.Error(), "sweepPointFails") {
					t.Errorf("parallel %d: point panic recorded without its message or stack: %v", parallel, res.Err)
				}
			}
		}
		if failed := report.Failed(); len(failed) != 2 {
			t.Errorf("parallel %d: %d failed experiments, want the two that panicked", parallel, len(failed))
		}
	}
}

// TestParallelMatchesSerial runs the full experiment set (ablations
// included) serially and at Parallel=4 and requires byte-identical rendered
// output per experiment — the determinism contract behind canalbench's
// -parallel flag.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment set twice")
	}
	exps := append(All(), Ablations()...)
	serial := NewRunner(Options{Parallel: 1}).Run(context.Background(), exps)
	par := NewRunner(Options{Parallel: 4}).Run(context.Background(), exps)
	if len(serial.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(serial.Results), len(par.Results))
	}
	for i := range serial.Results {
		s, p := serial.Results[i], par.Results[i]
		if s.Err != nil || p.Err != nil {
			t.Errorf("%s: errors serial=%v parallel=%v", s.ID, s.Err, p.Err)
			continue
		}
		if s.Rendered != p.Rendered {
			t.Errorf("%s renders differently under -parallel:\nserial:\n%s\nparallel:\n%s", s.ID, s.Rendered, p.Rendered)
		}
	}
}
