// Package anomaly implements the multi-indicator alert classification of
// §4.2 and §6.2: from backend-, service- and tenant-level signals, decide
// between scaling, lossy or lossless sandbox migration and throttling.
// Classify is a pure function of its Signals; no loop samples the gateway
// and acts on its verdict yet, and nothing outside this package's tests
// calls it.
package anomaly

import (
	"fmt"

	"canalmesh/internal/scaling"
)

// Action is the intervention a classification recommends.
type Action int

const (
	// ActionNone means no intervention.
	ActionNone Action = iota
	// ActionScale grows capacity via the precise-scaling planner.
	ActionScale
	// ActionLossyMigrate resets sessions and rebuilds the service in a
	// sandbox within seconds (gateway protection, §6.2 Case #1).
	ActionLossyMigrate
	// ActionLosslessMigrate drains the service into a sandbox without
	// breaking existing sessions (§6.2 Case #2).
	ActionLosslessMigrate
	// ActionThrottle rate-limits the service at the gateway to protect the
	// user's own cluster (§6.2 Case #3).
	ActionThrottle
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionScale:
		return "scale"
	case ActionLossyMigrate:
		return "lossy-migrate"
	case ActionLosslessMigrate:
		return "lossless-migrate"
	case ActionThrottle:
		return "throttle"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Signals is the indicator snapshot a classification is made from.
type Signals struct {
	// WaterLevel is the alerting backend's CPU utilization in [0,1].
	WaterLevel float64
	// RPSGrowth is current RPS / baseline RPS over the detection window.
	RPSGrowth float64
	// SessionGrowth is current live sessions / baseline sessions.
	SessionGrowth float64
	// SessionUtilization is the fraction of backend session capacity used.
	SessionUtilization float64
	// ScalingOpsRecent counts auto-scaling operations in the recent past
	// (unusually frequent scaling is itself an anomaly, §4.2).
	ScalingOpsRecent int
	// UserClusterUtil is the tenant's own cluster utilization in [0,1];
	// negative when the cluster is not hosted on this cloud (unknown).
	UserClusterUtil float64
}

// The production-calibrated classification thresholds; the backend water
// level alarm is scaling.AlertLevel.
const (
	// sessionAttack is the session growth that, without matching RPS,
	// signals an attack.
	sessionAttack = 3.0
	// rpsMatchingGrowth is the RPS growth considered to match the sessions.
	rpsMatchingGrowth = 1.5
	// sessionUtilAlert is the session-capacity alarm (80% in Case #1).
	sessionUtilAlert = 0.80
	// frequentScaling is the count of recent scaling operations considered
	// unusually frequent.
	frequentScaling = 5
	// clusterOverload is the tenant cluster utilization alert.
	clusterOverload = 0.95
)

// Classification is the outcome of analyzing an alert.
type Classification struct {
	Action Action
	Reason string
}

// Classify applies the decision procedure of §4.2/§6.2:
//
//   - sessions surging without matching RPS is an attack signature
//     (Case #1): lossy migration to a sandbox;
//   - unusually frequent auto-scaling with slow traffic growth is a
//     suspected attack with a stable backend (Case #2): lossless migration;
//   - the tenant's own cluster nearing saturation calls for gateway-side
//     throttling to protect the user apps (Case #3);
//   - an ordinary water-level breach with traffic growth is normal load:
//     scale capacity;
//   - anything else needs no intervention.
func Classify(s Signals) Classification {
	sessionAlarm := s.SessionUtilization >= sessionUtilAlert || s.WaterLevel >= scaling.AlertLevel
	if sessionAlarm && s.SessionGrowth >= sessionAttack && s.RPSGrowth < rpsMatchingGrowth {
		return Classification{
			Action: ActionLossyMigrate,
			Reason: fmt.Sprintf("#TCP sessions surged %.1fx without a matching RPS increase (%.1fx)", s.SessionGrowth, s.RPSGrowth),
		}
	}
	if s.ScalingOpsRecent >= frequentScaling && s.WaterLevel < scaling.AlertLevel {
		return Classification{
			Action: ActionLosslessMigrate,
			Reason: fmt.Sprintf("unusually frequent scaling (%d ops) while backends remain stable", s.ScalingOpsRecent),
		}
	}
	if s.UserClusterUtil >= clusterOverload {
		return Classification{
			Action: ActionThrottle,
			Reason: fmt.Sprintf("tenant cluster at %.0f%% utilization; throttling inbound at the gateway", s.UserClusterUtil*100),
		}
	}
	if s.WaterLevel >= scaling.AlertLevel {
		return Classification{
			Action: ActionScale,
			Reason: fmt.Sprintf("backend water level %.0f%% from normal traffic growth", s.WaterLevel*100),
		}
	}
	return Classification{Action: ActionNone, Reason: "all indicators nominal"}
}

// GrowthRatio compares the mean of the recent half of values against the
// mean of the older half, returning recent/older (1 when flat or
// insufficient data).
func GrowthRatio(values []float64) float64 {
	if len(values) < 2 {
		return 1
	}
	mid := len(values) / 2
	older, recent := mean(values[:mid]), mean(values[mid:])
	if older <= 0 {
		if recent > 0 {
			return recent + 1 // unbounded growth from zero
		}
		return 1
	}
	return recent / older
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
