package bench

import (
	"fmt"

	"canalmesh/internal/healthcheck"
)

// vmsForSessions returns how many VMs a deployment needs to hold sessions
// concurrent sessions given the per-VM session capacity and a CPU-driven
// floor (VMs needed for compute regardless of sessions). This is the
// arithmetic behind Table 5's observation that session savings do not
// translate 1:1 into VM savings.
func vmsForSessions(sessions, perVMCapacity, cpuFloor int) int {
	if perVMCapacity <= 0 {
		panic("bench: per-VM session capacity must be positive")
	}
	vms := (sessions + perVMCapacity - 1) / perVMCapacity
	if vms < cpuFloor {
		vms = cpuFloor
	}
	if vms < 1 {
		vms = 1
	}
	return vms
}

// regionProfile parameterizes one cloud region's gateway deployment for the
// cost model of Table 5.
type regionProfile struct {
	Name           string
	Services       int
	SessionsPerSvc int // concurrent sessions per service
	CPUFloorPerSvc int // replica VMs a service needs for compute alone
	LBsPerSvcPerAZ int // dedicated LB VMs per service per AZ (baseline)
	AZs            int
	TunnelsPerSvc  int
}

// Tab05CostReduction reproduces Table 5: VM counts for four regions under
// the baseline (dedicated LBs + session-sized replicas), with redirectors
// (LB VMs removed), with tunneling (session tables collapse to tunnels), and
// with both (§4.4).
func Tab05CostReduction() *Table {
	t := &Table{ID: "table5", Title: "Cost reduction by redirector and tunneling",
		Headers: []string{"Region", "Baseline VMs", "Redirector", "Tunneling", "Redirector&Tunneling"}}
	const perVMSessions = 100_000
	regions := []regionProfile{
		{"Region1", 40, 520_000, 4, 2, 2, 40},
		{"Region2", 60, 450_000, 3, 2, 2, 40},
		{"Region3", 30, 700_000, 4, 2, 2, 40},
		{"Region4", 45, 550_000, 4, 2, 2, 40},
	}
	for _, r := range regions {
		// Session-sized replica fleet (sessions dominate sizing, §3.2 #4).
		replicasSession := r.Services * vmsForSessions(r.SessionsPerSvc, perVMSessions, r.CPUFloorPerSvc)
		// After tunneling, sessions collapse to a few tunnels per replica;
		// the CPU floor takes over ("this does not mean a proportional
		// reduction in the number of required VMs", §5.6).
		replicasCPU := r.Services * vmsForSessions(r.TunnelsPerSvc, perVMSessions, r.CPUFloorPerSvc)
		// Dedicated LB fleet; LBs hold sessions too, so tunneling shrinks
		// them to one per service per AZ.
		lbs := r.Services * r.LBsPerSvcPerAZ * r.AZs
		lbsTunneled := r.Services * r.AZs

		baseline := lbs + replicasSession
		redirector := replicasSession          // redirectors embed into replicas (12-15x cheaper than L7 work)
		tunneling := lbsTunneled + replicasCPU // still paying for (smaller) LBs
		both := replicasCPU

		pct := func(vms int) string {
			return fmt.Sprintf("%d (-%.1f%%)", vms, (1-float64(vms)/float64(baseline))*100)
		}
		t.AddRow(r.Name, baseline, pct(redirector), pct(tunneling), pct(both))
	}
	t.Notes = append(t.Notes,
		"paper: redirector saves 32-48%, tunneling 32-45%, combined 55-70%",
		"redirection processing is 12-15x cheaper than replica L7 work, so redirectors ride existing replica VMs")
	return t
}

// CostSavings computes the three savings fractions for a profile (exposed
// for tests and ablations).
func CostSavings(r regionProfile) (redirector, tunneling, both float64) {
	const perVMSessions = 100_000
	replicasSession := r.Services * vmsForSessions(r.SessionsPerSvc, perVMSessions, r.CPUFloorPerSvc)
	replicasCPU := r.Services * vmsForSessions(r.TunnelsPerSvc, perVMSessions, r.CPUFloorPerSvc)
	lbs := r.Services * r.LBsPerSvcPerAZ * r.AZs
	lbsTunneled := r.Services * r.AZs
	baseline := float64(lbs + replicasSession)
	return 1 - float64(replicasSession)/baseline,
		1 - float64(lbsTunneled+replicasCPU)/baseline,
		1 - float64(replicasCPU)/baseline
}

// DefaultRegionProfile returns Region1's profile for tests.
func DefaultRegionProfile() regionProfile {
	return regionProfile{"Region1", 40, 520_000, 4, 2, 2, 40}
}

// healthCase pairs a deployment with its observed app traffic (Table 6).
type healthCase struct {
	Name   string
	AppRPS float64
	Deploy healthcheck.Deployment
}

// healthCases builds the five production cases of Tables 6 and 7.
func healthCases() []healthCase {
	mk := func(services, appsPerSvc, overlap, backends, replicas, cores int, rate float64) healthcheck.Deployment {
		var specs []healthcheck.ServiceSpec
		app := 0
		for i := 0; i < services; i++ {
			apps := make([]int, appsPerSvc)
			for j := range apps {
				apps[j] = app + j
			}
			specs = append(specs, healthcheck.ServiceSpec{Name: fmt.Sprintf("s%d", i), Apps: apps, Backends: backends})
			app += appsPerSvc - overlap
		}
		return healthcheck.Deployment{
			Services: specs, ReplicasPerBE: replicas, CoresPerReplica: cores,
			ProbeRatePerTarget: rate,
		}
	}
	return []healthCase{
		{"Case1", 21, mk(6, 4, 1, 3, 25, 8, 0.5)},
		{"Case2", 4221, mk(13, 5, 1, 4, 25, 8, 0.67)},
		{"Case3", 385, mk(9, 3, 0, 3, 25, 8, 0.67)},
		{"Case4", 496, mk(11, 4, 2, 4, 25, 8, 0.5)},
		{"Case5", 9224, mk(12, 4, 1, 3, 25, 8, 0.67)},
	}
}

// Tab06HealthCheckExcess reproduces Table 6: unaggregated health-check RPS
// vs app traffic, reaching hundreds of times the app RPS.
func Tab06HealthCheckExcess() *Table {
	t := &Table{ID: "table6", Title: "Excessive health checks vs app traffic",
		Headers: []string{"Case", "App traffic (RPS)", "Health checks (RPS)", "Ratio"}}
	worst := 0.0
	for _, c := range healthCases() {
		probes := c.Deploy.ProbeRPS(healthcheck.LevelBase)
		ratio := probes / c.AppRPS
		if ratio > worst {
			worst = ratio
		}
		t.AddRow(c.Name, fmt.Sprintf("%.0f", c.AppRPS), fmt.Sprintf("%.0f", probes), fmt.Sprintf("%.0fx", ratio))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("worst ratio %.0fx (paper: up to 515x)", worst))
	return t
}

// Tab07HealthCheckReduction reproduces Table 7: probes remaining after each
// aggregation level and the final reduction (>= 99.6%).
func Tab07HealthCheckReduction() *Table {
	t := &Table{ID: "table7", Title: "Health check reduction by aggregation",
		Headers: []string{"Case", "Base", "Service-", "Core-", "Replica-", "Reduction"}}
	minRed := 1.0
	for _, c := range healthCases() {
		d := c.Deploy
		red := d.Reduction()
		if red < minRed {
			minRed = red
		}
		t.AddRow(c.Name,
			fmt.Sprintf("%.0f", d.ProbeRPS(healthcheck.LevelBase)),
			fmt.Sprintf("%.0f", d.ProbeRPS(healthcheck.LevelService)),
			fmt.Sprintf("%.0f", d.ProbeRPS(healthcheck.LevelCore)),
			fmt.Sprintf("%.0f", d.ProbeRPS(healthcheck.LevelReplica)),
			fmt.Sprintf("%.2f%%", red*100))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("minimum reduction %.2f%% (paper: 99.61%%)", minRed*100))
	return t
}
