// Package healthcheck reproduces §6.1: the consolidated mesh gateway causes
// redundant health checks — every core of every replica of every backend
// hosting a service probes the service's apps, and overlapping app sets
// across services multiply the traffic (up to 515x the app traffic, Table
// 6). The multi-level aggregation priced here (service-level overlap
// merging, core-level election, and a per-backend health-check proxy at the
// replica level) reduces probes by >99.6% (Table 7).
package healthcheck

import (
	"fmt"
	"sort"
)

// ServiceSpec describes one service's probing footprint on the gateway.
type ServiceSpec struct {
	Name string
	// Apps are the app-endpoint IDs associated with the service. Apps in a
	// pod may belong to multiple services, so IDs may repeat across specs.
	Apps []int
	// Backends is the number of gateway backends carrying the service.
	Backends int
}

// Deployment describes the gateway-side topology relevant to health checks.
type Deployment struct {
	Services        []ServiceSpec
	ReplicasPerBE   int
	CoresPerReplica int
	// ProbeRatePerTarget is probes/second each prober sends per app.
	ProbeRatePerTarget float64
}

// Level identifies an aggregation stage, matching Table 7's columns.
type Level int

const (
	// LevelBase is the unaggregated gateway: every core probes.
	LevelBase Level = iota
	// LevelService merges services with overlapping apps per backend.
	LevelService
	// LevelCore elects one core per replica to probe.
	LevelCore
	// LevelReplica adds a per-backend health-check proxy, so replicas stop
	// probing entirely.
	LevelReplica
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelBase:
		return "base"
	case LevelService:
		return "service-agg"
	case LevelCore:
		return "core-agg"
	case LevelReplica:
		return "replica-agg"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ProbeRPS returns the total health-check RPS hitting user apps at the given
// aggregation level.
//
// The backend-assignment model: services land on backends round-robin by
// index, so two services share a backend when their assigned index sets
// intersect — the condition for service-level aggregation (which only
// merges on a shared backend, §6.1).
func (d Deployment) ProbeRPS(level Level) float64 {
	perBackendGroups := d.groupsPerBackend(level >= LevelService)
	var targets float64
	for _, groups := range perBackendGroups {
		for _, apps := range groups {
			targets += float64(len(apps))
		}
	}
	probersPerBackend := 1.0 // replica-agg: one health-check proxy
	switch level {
	case LevelBase, LevelService:
		probersPerBackend = float64(d.ReplicasPerBE * d.CoresPerReplica)
	case LevelCore:
		probersPerBackend = float64(d.ReplicasPerBE)
	}
	return targets * probersPerBackend * d.ProbeRatePerTarget
}

// Reduction returns 1 - fullyAggregated/base.
func (d Deployment) Reduction() float64 {
	base := d.ProbeRPS(LevelBase)
	if base == 0 {
		return 0
	}
	return 1 - d.ProbeRPS(LevelReplica)/base
}

// maxBackends returns the largest backend index in use.
func (d Deployment) maxBackends() int {
	max := 0
	for _, s := range d.Services {
		if s.Backends > max {
			max = s.Backends
		}
	}
	return max
}

// groupsPerBackend computes, for each backend, the app-ID groups probed.
// Without service aggregation each service is its own group (apps probed
// once per service, duplicates included). With aggregation, services whose
// app sets overlap on that backend are merged and their apps deduplicated.
func (d Deployment) groupsPerBackend(aggregate bool) [][][]int {
	n := d.maxBackends()
	out := make([][][]int, n)
	for be := 0; be < n; be++ {
		var onBackend []ServiceSpec
		for _, s := range d.Services {
			if be < s.Backends { // round-robin prefix assignment
				onBackend = append(onBackend, s)
			}
		}
		if !aggregate {
			for _, s := range onBackend {
				out[be] = append(out[be], s.Apps)
			}
			continue
		}
		out[be] = mergeOverlapping(onBackend)
	}
	return out
}

// mergeOverlapping unions the app sets of services that transitively share
// apps (union-find over shared app IDs).
func mergeOverlapping(services []ServiceSpec) [][]int {
	parent := make([]int, len(services))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	appOwner := map[int]int{}
	for i, s := range services {
		for _, app := range s.Apps {
			if owner, ok := appOwner[app]; ok {
				union(i, owner)
			} else {
				appOwner[app] = i
			}
		}
	}
	groups := map[int]map[int]bool{}
	for i, s := range services {
		root := find(i)
		if groups[root] == nil {
			groups[root] = map[int]bool{}
		}
		for _, app := range s.Apps {
			groups[root][app] = true
		}
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		apps := make([]int, 0, len(groups[r]))
		for a := range groups[r] {
			apps = append(apps, a)
		}
		sort.Ints(apps)
		out = append(out, apps)
	}
	return out
}
