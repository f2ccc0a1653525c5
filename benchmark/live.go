package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// exchanged is the outcome of one request as the client saw it.
type exchanged struct {
	sent, done time.Time
	problem    string // "" when the response is the expected one
}

// exchange sends request id and checks the response: the status the
// generator expects for it and, on success, every byte of the reply.
func (w *world) exchange(c *http.Client, id uint64, base string, direct bool, buf []byte) exchanged {
	req, sp, err := w.newRequest(id, base, direct)
	if err != nil {
		return exchanged{problem: err.Error()}
	}
	want := sp.wantStatus
	if direct {
		want = http.StatusOK // nothing between client and upstream denies
	}
	out := exchanged{sent: time.Now()}
	resp, err := c.Do(req)
	if err != nil {
		out.done = time.Now()
		out.problem = "transport: " + err.Error()
		return out
	}
	n, err := io.ReadFull(resp.Body, buf)
	resp.Body.Close()
	out.done = time.Now()
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		out.problem = "reading reply: " + err.Error()
	case resp.StatusCode != want:
		out.problem = fmt.Sprintf("status %d, want %d: %.120s", resp.StatusCode, want, buf[:n])
	case want == http.StatusOK && !bytes.Equal(buf[:n], bodyFor(id, sp.replyLen)):
		out.problem = fmt.Sprintf("reply of %d bytes differs from the %d expected", n, sp.replyLen)
	case sp.mirrored && !direct:
		w.mirrorsSent.Add(1)
	}
	return out
}

// liveRun is one timed run of the generator over the world's stream.
type liveRun struct {
	seconds float64
	open    bool          // open loop at the world's fixed rate, not closed loop
	direct  bool          // straight to the v1 upstream, bypassing the gateway
	rec     *spanRecorder // non-nil for a traced run
	// warm is how many of the run's first requests are checked but left out
	// of the timings, for a run that follows a change of listener.
	warm uint64
}

// liveResult is what one run measured.
type liveResult struct {
	samples   []sample
	elapsed   time.Duration
	attempted int
	failed    int
	firstBad  string
	lateUs    []float64 // open loop: how late each request was sent
	reconfigs []float64 // µs per ConfigureService call made beside the traffic
	exhausted bool      // the signed stream ran out before the time did
}

// run drives the stream for r.seconds on two connections: closed loop, or
// open loop at the world's fixed rate with latency counted from each
// request's due time and not from when it was sent.
func (w *world) run(r liveRun) liveResult {
	base := w.gwSrv.URL
	if r.direct {
		base = w.ups[subsetV1].srv.URL
	}
	for _, u := range w.ups {
		u.rec.Store(r.rec)
	}
	defer func() {
		for _, u := range w.ups {
			u.rec.Store(nil)
		}
	}()

	first := w.cursor.Load()
	interval := time.Duration(0)
	if r.open {
		interval = time.Duration(float64(time.Second) / w.spec.openRate)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))

	type lane struct {
		samples   []sample
		late      []float64
		attempted int
		failed    int
		firstBad  string
		exhausted bool
	}
	lanes := make([]lane, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ln := &lanes[g]
			buf := make([]byte, postReply+1)
			var pace *pacer
			if interval > 0 {
				var err error
				if pace, err = newPacer(); err != nil {
					ln.attempted, ln.failed, ln.firstBad = 1, 1, err.Error()
					return
				}
				defer pace.close()
			}
			for {
				id := w.cursor.Add(1) - 1
				if w.limit > 0 && id >= w.limit && !r.direct {
					// Straight to an upstream nothing checks a signature, so
					// that pass may go round the stream.
					ln.exhausted = true
					return
				}
				ordinal := id - first
				from := time.Time{}
				if interval > 0 {
					due := start.Add(time.Duration(ordinal) * interval)
					if !due.Before(deadline) {
						return
					}
					if err := pace.sleepUntil(due); err != nil {
						ln.attempted++
						ln.failed++
						ln.firstBad = err.Error()
						return
					}
					from = due
				} else if !time.Now().Before(deadline) {
					return
				}
				ex := w.exchange(w.clients[g], id, base, r.direct, buf)
				if from.IsZero() {
					from = ex.sent
				}
				ln.attempted++
				if ex.problem != "" {
					ln.failed++
					if ln.firstBad == "" {
						ln.firstBad = fmt.Sprintf("request %d: %s", id, ex.problem)
					}
					continue
				}
				if ordinal < r.warm {
					continue
				}
				ln.samples = append(ln.samples, sample{dur: float64(ex.done.Sub(from)), ops: 1})
				if interval > 0 {
					ln.late = append(ln.late, float64(ex.sent.Sub(from))/1e3)
				}
				if r.rec != nil {
					r.rec.add(span{Req: id, Name: "client", Start: int64(ex.sent.Sub(r.rec.epoch)), End: int64(ex.done.Sub(r.rec.epoch))})
				}
			}
		}(g)
	}

	var reconfigs []float64
	rejected := 0
	stopReconfig := make(chan struct{})
	reconfigDone := make(chan struct{})
	go func() {
		defer close(reconfigDone)
		if w.spec.reconfigPerSec <= 0 || r.direct {
			return
		}
		tick := time.NewTicker(time.Duration(float64(time.Second) / w.spec.reconfigPerSec))
		defer tick.Stop()
		for {
			select {
			case <-stopReconfig:
				return
			case <-tick.C:
				us, err := w.reconfigure()
				if err != nil {
					rejected++
					continue
				}
				reconfigs = append(reconfigs, us)
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(stopReconfig)
	<-reconfigDone

	out := liveResult{elapsed: elapsed, reconfigs: reconfigs}
	for i := range lanes {
		ln := &lanes[i]
		out.samples = append(out.samples, ln.samples...)
		out.lateUs = append(out.lateUs, ln.late...)
		out.attempted += ln.attempted
		out.failed += ln.failed
		if out.firstBad == "" {
			out.firstBad = ln.firstBad
		}
		out.exhausted = out.exhausted || ln.exhausted
	}
	// A reconfiguration is an operation of the run, and a rejected one a
	// failed operation.
	out.attempted += len(reconfigs) + rejected
	out.failed += rejected
	if rejected > 0 && out.firstBad == "" {
		out.firstBad = "ConfigureService rejected a generated configuration"
	}
	return out
}

// reconfigure re-installs one generated service through ConfigureService,
// rotating over the services, and returns how long the call took in µs.
func (w *world) reconfigure() (float64, error) {
	n := int(w.reconfigured.Add(1) - 1)
	t := n % len(w.services)
	s := (n / len(w.services)) % len(w.services[t])
	t0 := time.Now()
	err := w.gw.ConfigureService(tenantName(t), w.services[t][s].cfg, w.pools)
	return float64(time.Since(t0)) / 1e3, err
}

// settle checks what only shows once traffic has stopped: that no upstream
// saw a forwarded request differ from its expectation, and that every
// mirrored request reached the shadow subset. It returns the problems found.
func (w *world) settle() []string {
	var problems []string
	want := w.mirrorsSent.Load()
	shadow := w.ups[subsetShadow]
	for wait := time.Now().Add(2 * time.Second); shadow.received.Load() < want && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if got := shadow.received.Load(); got != want {
		problems = append(problems, fmt.Sprintf("shadow subset received %d mirrored requests, want %d", got, want))
	}
	if f := w.gw.MirrorFailures(); f > 0 {
		problems = append(problems, fmt.Sprintf("gateway counted %.0f mirror failures", f))
	}
	names := make([]string, 0, len(w.ups))
	for name := range w.ups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u := w.ups[name]
		if n := u.mismatches.Load(); n > 0 {
			problems = append(problems, fmt.Sprintf("upstream %s saw %d mismatches, first: %s", name, n, *u.firstBad.Load()))
		}
	}
	return problems
}
