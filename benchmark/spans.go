package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program or around its own client and upstream handlers. Spans of one
// request share Req; Parent names the span of the same request that caused
// this one ("" for the root).
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanFileRequests caps how many requests' spans are written to the span
// file; aggregates are computed over every traced request.
const spanFileRequests = 5000

// spanRecorder keeps spans in memory until the run ends. Timestamps are
// offsets from the recorder's epoch on the process's monotonic clock, so
// spans recorded by different goroutines of this one process compare.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// gatewaySplit is what the gateway's share of one request looks like from
// outside: the client span minus the upstream span, split at the upstream's
// arrival and departure. pre + upstream + post equals the client span.
type gatewaySplit struct {
	pre, upstream, post int64
}

func (g gatewaySplit) resident() int64 { return g.pre + g.post }

// joined is one request's client span and the upstream span the same
// request caused, found by the request ID both carry.
type joined struct{ client, upstream span }

func (j joined) split() gatewaySplit {
	return gatewaySplit{pre: j.upstream.Start - j.client.Start, upstream: j.upstream.dur(), post: j.client.End - j.upstream.End}
}

// joinSpans pairs each request's client span with its upstream span and
// returns the requests that have both, in request order.
func joinSpans(spans []span) []joined {
	clients := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == "client" {
			clients[s.Req] = s
		}
	}
	var out []joined
	for _, s := range spans {
		if c, ok := clients[s.Req]; ok && s.Name == "upstream" {
			out = append(out, joined{client: c, upstream: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].client.Req < out[j].client.Req })
	return out
}

// withGatewaySpans adds, for every joined request, the two spans the join
// derives: the gateway's time before and after the upstream exchange.
func withGatewaySpans(spans []span) []span {
	out := append([]span(nil), spans...)
	for _, j := range joinSpans(spans) {
		c, u := j.client, j.upstream
		out = append(out,
			span{Req: c.Req, Name: "gateway.pre_upstream", Parent: "client", Start: c.Start, End: u.Start},
			span{Req: c.Req, Name: "gateway.post_upstream", Parent: "client", Start: u.End, End: c.End})
	}
	return out
}

// writeSpans writes the spans of the first spanFileRequests requests, one
// JSON object per line, ordered by request and start time.
func writeSpans(path string, spans []span) (err error) {
	kept := append([]span(nil), spans...)
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Req != kept[j].Req {
			return kept[i].Req < kept[j].Req
		}
		return kept[i].Start < kept[j].Start
	})
	requests := 0
	for i, s := range kept {
		if i == 0 || s.Req != kept[i-1].Req {
			if requests++; requests > spanFileRequests {
				kept = kept[:i]
				break
			}
		}
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range kept {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
