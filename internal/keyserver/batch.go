package keyserver

import "time"

// AVXBatchSize is the number of asymmetric operations one AVX-512 batch
// holds (Appendix C, Fig. 25): the 512-bit buffer fits 8. A partially filled
// batch waits for a timeout (the hardware's minimum threshold is 1 ms)
// before it is flushed.
const AVXBatchSize = 8

// CompletionModel answers, in closed form, the expected completion time for
// one asymmetric operation given the number of concurrently arriving new
// sessions. A full batch flushes at once; a partial one stalls for Timeout
// first. This is the mechanism behind two results in the paper, and the
// analytical benches (Figs. 23/25) render it:
//   - local offloading degrades below AVXBatchSize concurrent new sessions
//     because batches flush on timeout (Fig. 25);
//   - the shared key server stays fast because aggregate arrival from many
//     tenants keeps batches full (§4.1.3).
type CompletionModel struct {
	BatchSize int
	Timeout   time.Duration
	BatchCost time.Duration
	// RPCRoundTrip is added for remote offloading (requester <-> key
	// server); zero for local acceleration.
	RPCRoundTrip time.Duration
}

// Complete returns the expected completion time when concurrent operations
// arrive together.
func (m CompletionModel) Complete(concurrent int) time.Duration {
	if concurrent <= 0 {
		concurrent = 1
	}
	wait := time.Duration(0)
	if concurrent < m.BatchSize {
		// Partial batch: stalls until the timeout flushes it.
		wait = m.Timeout
	}
	return m.RPCRoundTrip + wait + m.BatchCost
}
