package anomaly

import (
	"math"
	"testing"
)

func TestClassifyAttackSignature(t *testing.T) {
	// §6.2 Case #1: sessions saturate 80% of capacity, #TCP sessions surge
	// without matching RPS -> lossy migration.
	c := Classify(Signals{
		WaterLevel:         0.4,
		RPSGrowth:          1.1,
		SessionGrowth:      8.0,
		SessionUtilization: 0.85,
		UserClusterUtil:    -1,
	})
	if c.Action != ActionLossyMigrate {
		t.Errorf("action = %v (%s), want lossy migrate", c.Action, c.Reason)
	}
}

func TestClassifyFrequentScaling(t *testing.T) {
	// §6.2 Case #2: slow growth over hours, repeated auto-scaling, stable
	// backends -> lossless migration.
	c := Classify(Signals{
		WaterLevel:       0.4,
		RPSGrowth:        1.3,
		SessionGrowth:    1.2,
		ScalingOpsRecent: 7,
		UserClusterUtil:  -1,
	})
	if c.Action != ActionLosslessMigrate {
		t.Errorf("action = %v (%s), want lossless migrate", c.Action, c.Reason)
	}
}

func TestClassifyTenantOverload(t *testing.T) {
	// §6.2 Case #3: the user's own cluster nears 100% -> throttle at the
	// gateway.
	c := Classify(Signals{
		WaterLevel:      0.5,
		RPSGrowth:       4.0,
		SessionGrowth:   4.0,
		UserClusterUtil: 0.99,
	})
	if c.Action != ActionThrottle {
		t.Errorf("action = %v (%s), want throttle", c.Action, c.Reason)
	}
}

func TestClassifyNormalGrowthScales(t *testing.T) {
	c := Classify(Signals{
		WaterLevel:      0.85,
		RPSGrowth:       2.5,
		SessionGrowth:   2.4,
		UserClusterUtil: -1,
	})
	if c.Action != ActionScale {
		t.Errorf("action = %v (%s), want scale", c.Action, c.Reason)
	}
}

func TestClassifyNominal(t *testing.T) {
	c := Classify(Signals{WaterLevel: 0.3, RPSGrowth: 1.0, SessionGrowth: 1.0, UserClusterUtil: -1})
	if c.Action != ActionNone {
		t.Errorf("action = %v, want none", c.Action)
	}
}

func TestClassifyAttackBeatsScale(t *testing.T) {
	// High water level AND session surge: the attack branch must win so we
	// do not scale resources for an attacker.
	c := Classify(Signals{
		WaterLevel:         0.9,
		RPSGrowth:          1.0,
		SessionGrowth:      10,
		SessionUtilization: 0.9,
		UserClusterUtil:    -1,
	})
	if c.Action != ActionLossyMigrate {
		t.Errorf("action = %v, want lossy migrate to win over scale", c.Action)
	}
}

func TestActionString(t *testing.T) {
	names := map[Action]string{
		ActionNone: "none", ActionScale: "scale", ActionLossyMigrate: "lossy-migrate",
		ActionLosslessMigrate: "lossless-migrate", ActionThrottle: "throttle",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Action(42).String() == "" {
		t.Error("unknown action should stringify")
	}
}

func TestGrowthRatio(t *testing.T) {
	if g := GrowthRatio([]float64{10, 10, 20, 20}); math.Abs(g-2) > 1e-9 {
		t.Errorf("growth = %v, want 2", g)
	}
	if g := GrowthRatio([]float64{5}); g != 1 {
		t.Errorf("single sample growth = %v, want 1", g)
	}
	if g := GrowthRatio([]float64{0, 0, 10, 10}); g <= 1 {
		t.Errorf("growth from zero = %v, want > 1", g)
	}
	if g := GrowthRatio([]float64{0, 0, 0, 0}); g != 1 {
		t.Errorf("flat zero growth = %v, want 1", g)
	}
}
