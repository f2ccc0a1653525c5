package anomaly

import (
	"time"

	"canalmesh/internal/gateway"
	"canalmesh/internal/scaling"
	"canalmesh/internal/sim"
)

// ActionRecord is one intervention the monitor performed.
type ActionRecord struct {
	At      time.Duration
	Service uint64
	Backend string
	Classification
}

// The monitor's fixed lookbacks.
const (
	// growthWindow is the lookback for growth computations.
	growthWindow = 20 * time.Second
	// scalingOpsWindow is how far back scaling operations count toward the
	// frequent-scaling indicator.
	scalingOpsWindow = time.Hour
)

// Monitor drives the full §4.2 loop: every second it samples each backend's
// water level and its top service's traffic/session indicators, classifies
// the situation, and executes the recommended intervention — precise
// scaling for normal growth, sandbox migration for attack signatures,
// gateway throttling when the tenant's own cluster is drowning.
type Monitor struct {
	sim     *sim.Sim
	g       *gateway.Gateway
	planner *scaling.Planner

	// Cooldown suppresses repeated interventions on the same service.
	Cooldown time.Duration
	// SessionCapacity is the per-backend session budget used for the
	// session-utilization signal.
	SessionCapacity int
	// UserClusterUtil, when non-nil, reports a tenant's own cluster
	// utilization (the tenant-level indicator); nil means unknown (-1).
	UserClusterUtil func(tenant string) float64

	baseline map[uint64]float64 // EWMA of session counts per service
	lastAct  map[uint64]time.Duration
	actions  []ActionRecord
	running  bool
}

// NewMonitor builds a monitor over a gateway and its scaling planner.
func NewMonitor(s *sim.Sim, g *gateway.Gateway, planner *scaling.Planner) *Monitor {
	return &Monitor{
		sim: s, g: g, planner: planner,
		Cooldown:        25 * time.Second,
		SessionCapacity: 100_000,
		baseline:        make(map[uint64]float64),
		lastAct:         make(map[uint64]time.Duration),
	}
}

// Actions returns the interventions performed so far.
func (m *Monitor) Actions() []ActionRecord { return append([]ActionRecord(nil), m.actions...) }

// Start schedules the monitoring loop until stop returns true.
func (m *Monitor) Start(stop func() bool) {
	if m.running {
		return
	}
	m.running = true
	m.sim.Every(time.Second, func() bool {
		if stop != nil && stop() {
			m.running = false
			return false
		}
		m.tick()
		return true
	})
}

// tick inspects every backend once.
func (m *Monitor) tick() {
	now := m.sim.Now()
	for _, b := range m.g.Backends() {
		if !b.Alive() {
			continue
		}
		svcID, ok := m.topService(b, now)
		if !ok {
			continue
		}
		svc := m.g.Service(svcID)
		if svc == nil || svc.Sandboxed {
			continue
		}
		// Update the session baseline lazily (EWMA over calm periods).
		base := m.baseline[svcID]
		if base == 0 {
			base = float64(svc.Sessions)
			if base == 0 {
				base = 1
			}
		}
		sig := Signals{
			WaterLevel:         b.WaterLevel(now - time.Second),
			RPSGrowth:          m.rpsGrowth(b, svcID, now),
			SessionGrowth:      float64(svc.Sessions) / base,
			SessionUtilization: float64(svc.Sessions) / float64(m.SessionCapacity),
			ScalingOpsRecent:   m.recentScalingOps(svcID, now),
			UserClusterUtil:    -1,
		}
		if m.UserClusterUtil != nil {
			sig.UserClusterUtil = m.UserClusterUtil(svc.Tenant)
		}
		c := Classify(sig)
		if c.Action == ActionNone {
			// Learn the baseline only while session counts look ordinary;
			// chasing a surge with the EWMA would blind the attack
			// detector to its own signal.
			if sig.SessionGrowth < 1.5 {
				m.baseline[svcID] = 0.9*base + 0.1*float64(svc.Sessions)
			} else {
				m.baseline[svcID] = base
			}
			continue
		}
		if last, acted := m.lastAct[svcID]; acted && now-last < m.Cooldown {
			continue
		}
		m.lastAct[svcID] = now
		m.execute(c, svc, b, now)
	}
}

// execute performs the classified intervention.
func (m *Monitor) execute(c Classification, svc *gateway.ServiceState, b *gateway.Backend, now time.Duration) {
	switch c.Action {
	case ActionScale:
		if m.planner != nil {
			_, _ = m.planner.ScaleService(svc.ID, b, now, nil)
		}
	case ActionLossyMigrate:
		_ = m.g.MigrateToSandbox(svc.ID, gateway.Lossy, nil)
	case ActionLosslessMigrate:
		_ = m.g.MigrateToSandbox(svc.ID, gateway.Lossless, nil)
	case ActionThrottle:
		// Throttle to half the current observed RPS; operators relax it as
		// the tenant's own scaling catches up (§6.2 Case #3).
		rps := m.currentRPS(b, svc.ID, now)
		if rps < 10 {
			rps = 10
		}
		_ = m.g.Throttle(svc.ID, rps/2, rps/2)
	}
	m.actions = append(m.actions, ActionRecord{At: now, Service: svc.ID, Backend: b.ID, Classification: c})
}

// topService returns the backend's highest-RPS service over the window.
func (m *Monitor) topService(b *gateway.Backend, now time.Duration) (uint64, bool) {
	var best uint64
	bestSum := -1.0
	for id, series := range b.RPSSeries {
		var sum float64
		for _, v := range series.Values(now-growthWindow, now+time.Nanosecond) {
			sum += v
		}
		if sum > bestSum {
			best, bestSum = id, sum
		}
	}
	return best, bestSum > 0
}

// rpsGrowth computes recent-vs-older mean RPS for a service on a backend.
func (m *Monitor) rpsGrowth(b *gateway.Backend, svcID uint64, now time.Duration) float64 {
	series := b.RPSSeries[svcID]
	if series == nil {
		return 1
	}
	return GrowthRatio(series.Values(now-growthWindow, now+time.Nanosecond))
}

// currentRPS returns the latest 1-second sample.
func (m *Monitor) currentRPS(b *gateway.Backend, svcID uint64, now time.Duration) float64 {
	series := b.RPSSeries[svcID]
	if series == nil {
		return 0
	}
	return series.Last().V
}

// recentScalingOps counts the planner's operations for a service inside the
// frequent-scaling window.
func (m *Monitor) recentScalingOps(svcID uint64, now time.Duration) int {
	if m.planner == nil {
		return 0
	}
	n := 0
	for _, e := range m.planner.Events() {
		if e.Service == svcID && now-e.ExecuteAt <= scalingOpsWindow {
			n++
		}
	}
	return n
}
