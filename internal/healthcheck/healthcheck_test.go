package healthcheck

import "testing"

// paperCase approximates Table 6/7's Case 2 scale: many services on several
// backends, replicas and cores multiplying probes.
func paperCase() Deployment {
	var services []ServiceSpec
	app := 0
	for i := 0; i < 12; i++ {
		// Each service has 4 apps; consecutive services share one app
		// ("apps in a pod may belong to different services").
		apps := []int{app, app + 1, app + 2, app + 3}
		services = append(services, ServiceSpec{Name: svc(i), Apps: apps, Backends: 3})
		app += 3 // overlap of one app with the next service
	}
	return Deployment{
		Services: services,
		// Scale-out leaves services with substantial replica counts (§6.1:
		// "the number of replicas for a service can be substantial").
		ReplicasPerBE:      25,
		CoresPerReplica:    8,
		ProbeRatePerTarget: 1,
	}
}

func svc(i int) string { return string(rune('a' + i)) }

func TestAggregationLevelsMonotonic(t *testing.T) {
	d := paperCase()
	base := d.ProbeRPS(LevelBase)
	svcAgg := d.ProbeRPS(LevelService)
	coreAgg := d.ProbeRPS(LevelCore)
	replicaAgg := d.ProbeRPS(LevelReplica)
	if !(base > svcAgg && svcAgg > coreAgg && coreAgg > replicaAgg) {
		t.Fatalf("levels not monotonic: %v %v %v %v", base, svcAgg, coreAgg, replicaAgg)
	}
}

func TestReductionAtLeast99Percent(t *testing.T) {
	// Table 7: minimum reduction 99.6%.
	d := paperCase()
	if r := d.Reduction(); r < 0.996 {
		t.Errorf("reduction = %.4f, want >= 0.996", r)
	}
}

func TestHealthChecksDwarfAppTraffic(t *testing.T) {
	// Table 6's phenomenon: unaggregated probes far exceed a modest app
	// RPS (21 RPS vs 10817 in Case 1).
	d := paperCase()
	appRPS := 100.0
	if base := d.ProbeRPS(LevelBase); base < 20*appRPS {
		t.Errorf("base probes %.0f should dwarf app traffic %.0f", base, appRPS)
	}
}

func TestCoreLevelDividesByCores(t *testing.T) {
	d := paperCase()
	if got, want := d.ProbeRPS(LevelCore), d.ProbeRPS(LevelService)/float64(d.CoresPerReplica); got != want {
		t.Errorf("core agg = %v, want %v", got, want)
	}
}

func TestReplicaLevelDividesByReplicas(t *testing.T) {
	d := paperCase()
	if got, want := d.ProbeRPS(LevelReplica), d.ProbeRPS(LevelCore)/float64(d.ReplicasPerBE); got != want {
		t.Errorf("replica agg = %v, want %v", got, want)
	}
}

func TestServiceAggregationOnlyOnSharedBackends(t *testing.T) {
	// Two services with identical apps but disjoint backend sets must NOT
	// be merged (the paper avoids cross-backend result synchronization).
	// With prefix assignment, b (1 backend) overlaps a (2 backends) on
	// backend 0 only; there they merge.
	a := ServiceSpec{Name: "a", Apps: []int{1, 2, 3}, Backends: 2}
	b := ServiceSpec{Name: "b", Apps: []int{3, 4}, Backends: 1}
	d := Deployment{Services: []ServiceSpec{a, b}, ReplicasPerBE: 1, CoresPerReplica: 1, ProbeRatePerTarget: 1}
	// Base: backend0 probes a(3)+b(2)=5; backend1 probes a(3). Total 8.
	if got := d.ProbeRPS(LevelBase); got != 8 {
		t.Errorf("base = %v, want 8", got)
	}
	// Service agg: backend0 probes union{1,2,3,4}=4; backend1 probes 3.
	if got := d.ProbeRPS(LevelService); got != 7 {
		t.Errorf("service agg = %v, want 7", got)
	}
}

func TestMergeOverlappingTransitive(t *testing.T) {
	groups := mergeOverlapping([]ServiceSpec{
		{Name: "a", Apps: []int{1, 2}},
		{Name: "b", Apps: []int{2, 3}},
		{Name: "c", Apps: []int{3, 4}},
		{Name: "d", Apps: []int{9}},
	})
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 (a-b-c chain, d alone)", groups)
	}
	if len(groups[0])+len(groups[1]) != 5 {
		t.Errorf("union sizes wrong: %v", groups)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelBase: "base", LevelService: "service-agg", LevelCore: "core-agg", LevelReplica: "replica-agg",
	} {
		if l.String() != want {
			t.Errorf("%d = %q, want %q", l, l.String(), want)
		}
	}
	if Level(9).String() == "" {
		t.Error("unknown level should stringify")
	}
}

func TestEmptyDeployment(t *testing.T) {
	var d Deployment
	if d.ProbeRPS(LevelBase) != 0 || d.Reduction() != 0 {
		t.Error("empty deployment should be all zeros")
	}
}
