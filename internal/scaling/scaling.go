// Package scaling implements Canal's precise cloud resource scaling (§4.3):
// root-cause analysis (run at every alert of Fig 16) pinpoints the service
// driving a backend's water level by correlating per-service RPS trends with
// the backend utilization trend, then the Reuse strategy extends the service
// onto an existing low-water-level backend in seconds, or the New strategy
// provisions a fresh backend in minutes (Fig 17, Table 4, Fig 18).
package scaling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
)

// Strategy selects how capacity is added.
type Strategy int

const (
	// Reuse extends the service to an existing under-utilized backend.
	Reuse Strategy = iota
	// New provisions a brand-new backend.
	New
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Reuse {
		return "reuse"
	}
	return "new"
}

// Stage durations of the New strategy (§5.5: "initialization tasks, such as
// VM creation, image loading, network setup, and resource registration"),
// calibrated so New's P50 lands around 17 minutes.
const (
	NewVMCreate     = 8 * time.Minute
	NewImageLoad    = 5 * time.Minute
	NewNetworkSetup = 2 * time.Minute
	NewRegistration = 2 * time.Minute
	// ReuseMedian is the P50 of the Reuse operation (§5.5: ~55 s from
	// alert to below-threshold; the extend itself takes ~20-25 s).
	ReuseMedian = 23 * time.Second
)

// RootCause identifies the service driving a backend's load: among the top
// services by RPS on the backend, the one whose traffic trend best tracks
// the backend's water-level trend over the window. It returns false when no
// service correlates convincingly.
func RootCause(b *gateway.Backend, from, to time.Duration, minCorr float64) (uint64, float64, bool) {
	util := b.Util.Values(from, to)
	if len(util) < 3 {
		return 0, 0, false
	}
	type cand struct {
		id   uint64
		rps  float64
		corr float64
	}
	var cands []cand
	for id, series := range b.RPSSeries {
		vals := series.Values(from, to)
		if len(vals) != len(util) {
			continue
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		cands = append(cands, cand{id: id, rps: sum, corr: telemetry.Correlation(vals, util)})
	}
	// Consider only the top services by volume (the paper samples RPS of
	// top services, §4.3).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rps != cands[j].rps {
			return cands[i].rps > cands[j].rps
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > 5 {
		cands = cands[:5]
	}
	best := cand{corr: math.Inf(-1)}
	for _, c := range cands {
		if c.corr > best.corr {
			best = c
		}
	}
	if best.corr < minCorr {
		return 0, best.corr, false
	}
	return best.id, best.corr, true
}

// Event records one scaling operation's timeline (Table 4).
type Event struct {
	Service   uint64
	Backend   string // the overloaded backend that alerted
	Strategy  Strategy
	AlertAt   time.Duration // threshold exceeded
	ExecuteAt time.Duration // operation started
	FinishAt  time.Duration // capacity available
	Target    string        // backend the service extended to
}

// AlertLevel is the backend water level at which the operations loop
// alerts: the alert that starts precise scaling.
const AlertLevel = 0.70

// The planner's production-calibrated settings.
const (
	// reuseMaxLevel is the highest water level a backend may have to be a
	// Reuse target (§4.3: "low water levels (e.g., < 20%)").
	reuseMaxLevel = 0.20
	// minCorrelation is the root-cause acceptance threshold.
	minCorrelation = 0.6
	// rcaWindow is the lookback for root-cause analysis.
	rcaWindow = 30 * time.Second
	// newBackendReplicas and newBackendCores size newly provisioned
	// backends.
	newBackendReplicas = 2
	newBackendCores    = 2
)

// Planner reacts to backend alerts with precise scaling.
type Planner struct {
	sim    *sim.Sim
	g      *gateway.Gateway
	region *cloud.Region
	events []Event
	// pending marks (backend, service) extends that are executing, so a
	// follow-up alert does not target the same backend twice.
	pending map[string]map[uint64]bool
}

// NewPlanner builds a planner over a gateway in a region.
func NewPlanner(s *sim.Sim, g *gateway.Gateway, region *cloud.Region) *Planner {
	return &Planner{sim: s, g: g, region: region, pending: make(map[string]map[uint64]bool)}
}

// markPending records an in-flight extend; done unmarks it.
func (p *Planner) markPending(backendID string, svc uint64) func() {
	if p.pending[backendID] == nil {
		p.pending[backendID] = make(map[uint64]bool)
	}
	p.pending[backendID][svc] = true
	return func() { delete(p.pending[backendID], svc) }
}

// Events returns the scaling history.
func (p *Planner) Events() []Event { return append([]Event(nil), p.events...) }

// ErrNoRootCause is returned when RCA cannot pinpoint a service.
var ErrNoRootCause = errors.New("scaling: no root-cause service identified")

// HandleAlert runs root-cause analysis for an overloaded backend and
// executes the appropriate strategy. alertAt is when the threshold was
// crossed. The returned event's FinishAt is when new capacity serves.
func (p *Planner) HandleAlert(b *gateway.Backend, alertAt time.Duration, done func(Event)) (*Event, error) {
	now := p.sim.Now()
	svcID, _, ok := RootCause(b, now-rcaWindow, now+time.Nanosecond, minCorrelation)
	if !ok {
		return nil, ErrNoRootCause
	}
	return p.ScaleService(svcID, b, alertAt, done)
}

// ScaleService extends capacity for a service whose load overran the given
// backend, preferring Reuse and falling back to New.
func (p *Planner) ScaleService(svcID uint64, overloaded *gateway.Backend, alertAt time.Duration, done func(Event)) (*Event, error) {
	svc := p.g.Service(svcID)
	if svc == nil {
		return nil, fmt.Errorf("scaling: unknown service %d", svcID)
	}
	now := p.sim.Now()
	ev := Event{Service: svcID, Backend: overloaded.ID, AlertAt: alertAt, ExecuteAt: now}

	if target := p.reuseTarget(svc, overloaded.AZ, now); target != nil {
		ev.Strategy = Reuse
		ev.Target = target.ID
		unmark := p.markPending(target.ID, svcID)
		finish := p.reuseDuration()
		p.sim.After(finish, func() {
			unmark()
			if err := p.g.ExtendService(svcID, target); err == nil {
				e := ev
				e.FinishAt = p.sim.Now()
				p.events = append(p.events, e)
				if done != nil {
					done(e)
				}
			}
		})
		return &ev, nil
	}

	// New: provision a backend through its initialization stages.
	ev.Strategy = New
	az := p.region.AZ(overloaded.AZ)
	if az == nil {
		return nil, fmt.Errorf("scaling: unknown AZ %q", overloaded.AZ)
	}
	total := p.newDuration()
	p.sim.After(total, func() {
		nb, err := p.g.AddBackend(az, newBackendReplicas, newBackendCores, false)
		if err != nil {
			return
		}
		if err := p.g.ExtendService(svcID, nb); err != nil {
			return
		}
		e := ev
		e.Target = nb.ID
		e.FinishAt = p.sim.Now()
		p.events = append(p.events, e)
		if done != nil {
			done(e)
		}
	})
	return &ev, nil
}

// reuseTarget finds a backend in the same AZ with a low water level that
// does not already host the service.
func (p *Planner) reuseTarget(svc *gateway.ServiceState, az string, now time.Duration) *gateway.Backend {
	var best *gateway.Backend
	bestLevel := reuseMaxLevel
	for _, b := range p.g.Backends() {
		if b.AZ != az || !b.Alive() || b.HostsService(svc.ID) || p.pending[b.ID][svc.ID] {
			continue
		}
		level := b.WaterLevel(now - time.Second)
		if level <= bestLevel {
			best = b
			bestLevel = level
		}
	}
	return best
}

// reuseDuration draws a Reuse completion time around the 23 s median.
func (p *Planner) reuseDuration() time.Duration {
	return SampleReuseExec(p.sim.Rand())
}

// newDuration draws a New completion time.
func (p *Planner) newDuration() time.Duration {
	return SampleNewExec(p.sim.Rand())
}

// SampleReuseExec draws the execute-to-finish time of one Reuse operation
// (configuration extend, ~23 s median, Table 4).
func SampleReuseExec(rng *rand.Rand) time.Duration {
	jitter := rng.NormFloat64() * 0.35
	d := units.Scale(ReuseMedian, math.Exp(jitter))
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// SampleNewExec draws the execute-to-finish time of one New operation: the
// four initialization stages with multiplicative jitter, P50 ≈ 17 min.
func SampleNewExec(rng *rand.Rand) time.Duration {
	base := NewVMCreate + NewImageLoad + NewNetworkSetup + NewRegistration
	jitter := rng.NormFloat64() * 0.2
	d := units.Scale(base, math.Exp(jitter))
	if d < 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// SampleSettle draws the time from capacity availability to the water level
// dropping below threshold (load redistribution across the enlarged
// backend set).
func SampleSettle(rng *rand.Rand) time.Duration {
	return 20*time.Second + units.Nanos(rng.Int63n(int64(40*time.Second)))
}
