package gateway

import (
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/workload"
)

func TestRollingUpgradeKeepsServing(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")

	statuses := map[int]int{}
	i := 0
	workload.OpenLoop(s, workload.Constant(100), 10*time.Millisecond, 60*time.Second, func() {
		i++
		g.Dispatch(st.ID, "az1", flow(uint16(i%60000+1)), gwReq(), 1, func(_ time.Duration, status int) {
			statuses[status]++
		})
	})
	upgraded := false
	s.At(5*time.Second, func() {
		// 8 replicas over 40s, 4s down each.
		if err := g.RollingUpgrade(40*time.Second, 4*time.Second, func() { upgraded = true }); err != nil {
			t.Fatal(err)
		}
	})
	s.Run()
	if !upgraded {
		t.Fatal("upgrade never completed")
	}
	if statuses[503] > 0 {
		t.Errorf("rolling upgrade caused %d unavailable responses (Fig 20: no error spikes)", statuses[503])
	}
	if statuses[200] < 5500 {
		t.Errorf("successes = %d, want ~6000", statuses[200])
	}
	// Everything is back up.
	for _, b := range g.Backends() {
		for _, r := range b.Replicas {
			if r.VM.Failed() {
				t.Error("replica still down after upgrade")
			}
		}
	}
}

func TestRollingUpgradeRefusesSingleReplicaBackends(t *testing.T) {
	s := sim.New(1)
	region := cloud.NewRegion(s, "r1", "az1")
	g := New(Config{Sim: s, Costs: netmodel.Default(), ShardSize: 1, Seed: 1})
	if _, err := g.AddBackend(region.AZ("az1"), 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := g.RollingUpgrade(time.Minute, time.Second, nil); err == nil {
		t.Error("single-replica backend must refuse a rolling upgrade")
	}
}

func TestRollingUpgradeRejectsImpossibleSchedule(t *testing.T) {
	_, _, g := testGateway(t)
	// 8 replicas x 10s each cannot fit in 20s.
	if err := g.RollingUpgrade(20*time.Second, 10*time.Second, nil); err == nil {
		t.Error("impossible schedule should be rejected")
	}
}

func TestRollingUpgradeNothingToUpgrade(t *testing.T) {
	s := sim.New(1)
	g := New(Config{Sim: s, Costs: netmodel.Default()})
	if err := g.RollingUpgrade(time.Minute, time.Second, nil); err == nil {
		t.Error("empty gateway should error")
	}
}
