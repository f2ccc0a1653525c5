package canal

// One sub-benchmark per registered experiment (bench.All plus
// bench.Ablations; see DESIGN.md §3). Each iteration regenerates the full
// experiment; the benchmark time is the cost of reproducing that table or
// figure end to end. Run a single experiment by its ID with e.g.:
//
//	go test -bench 'Experiment/fig11$' -benchtime=1x
//
// and print the rows/series themselves with cmd/canalbench.

import (
	"context"
	"testing"

	"canalmesh/internal/bench"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range append(bench.All(), bench.Ablations()...) {
		b.Run(e.ID, func(b *testing.B) {
			var sink bench.Result
			for i := 0; i < b.N; i++ {
				sink = e.Run(context.Background())
			}
			if sink == nil || sink.String() == "" {
				b.Fatal("experiment produced no output")
			}
		})
	}
}
