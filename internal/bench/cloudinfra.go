package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"canalmesh/internal/gateway"
	"canalmesh/internal/scaling"
	"canalmesh/internal/sharding"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
	"canalmesh/internal/workload"
)

// Fig16NoisyNeighbor reproduces the noisy-neighbor isolation timeline
// (Fig 16): a sudden surge on one service raises a shared backend past the
// safety threshold; a backend-level alert fires, root-cause analysis names
// the surging service, and precise scaling (Reuse) brings the CPU back down
// within tens of seconds, while the co-located services' RPS and latency
// stay flat and error codes remain zero.
func Fig16NoisyNeighbor() *Series {
	sc := newGatewayScenario(16, 10, 1, 2, 6)
	s, g := sc.Sim, sc.GW
	noisy := sc.Services[0]
	// Co-locate a victim service with the noisy one on its first backend.
	hot := noisy.Backends[0]
	var victim *gateway.ServiceState
	for _, other := range sc.Services[1:] {
		if hot.HostsService(other.ID) {
			victim = other
			break
		}
	}
	if victim == nil {
		victim = sc.Services[1]
		if err := g.ExtendService(victim.ID, hot); err != nil {
			panic(err)
		}
	}

	g.StartSampling(func() bool { return s.Now() > 95*time.Second })
	end := 90 * time.Second

	// Victim: steady 200 RPS; track its latency over time.
	victimLat := telemetry.NewSeries("victim-latency")
	victimDone := func(lat time.Duration, status int) {
		if status == 200 && s.Now() >= victimLat.Last().T {
			victimLat.Append(s.Now(), lat.Seconds()*1000)
		}
	}
	i := 0
	workload.OpenLoop(s, workload.Constant(200), 10*time.Millisecond, end, func() {
		i++
		g.Dispatch(victim.ID, "az1", dispatchFlow(i), gwRequest(), 1, victimDone)
	})
	// Noisy neighbor: surges at t=20s from 500 to a rate that drives the
	// shared backend toward ~80% utilization.
	j := 1 << 20
	workload.OpenLoop(s, workload.Spike(500, 16000, 20*time.Second, end), 10*time.Millisecond, end, func() {
		j++
		g.Dispatch(noisy.ID, "az1", dispatchFlow(j), gwRequest(), 1, func(time.Duration, int) {})
	})

	// Backend-level alert loop: on threshold breach, run root-cause
	// analysis and precise scaling (Reuse for responsiveness), with a
	// cooldown between operations.
	planner := scaling.NewPlanner(s, g, sc.Region)
	var alertAt time.Duration = -1
	var lastOp time.Duration = -time.Hour
	s.Every(time.Second, func() bool {
		now := s.Now()
		if now > end {
			return false
		}
		level := hot.WaterLevel(now - time.Second)
		trigger := level >= scaling.AlertLevel
		if alertAt >= 0 {
			// After the first alert, keep scaling until the level is
			// comfortably below the safety threshold (the paper brings
			// 80% down to ~30%).
			trigger = level >= 0.40
		}
		if trigger && now-lastOp > 18*time.Second {
			if alertAt < 0 {
				alertAt = now
			}
			lastOp = now
			// Root-cause analysis over the backend's own samples must
			// name the noisy service at every alert; the figure claims
			// nothing else.
			ev, err := planner.HandleAlert(hot, alertAt, nil)
			if err != nil || ev.Service != noisy.ID {
				panic(fmt.Sprintf("fig16: alert at %v: root cause %v (%v), want the noisy service %d", now, ev, err, noisy.ID))
			}
		}
		return true
	})
	s.Run()

	out := &Series{ID: "fig16", Title: "Noisy neighbor isolation",
		XLabel: "time (s)", YLabel: "see line names"}
	for _, p := range hot.Util.Points() {
		out.Add("backend-cpu (%)", p.T.Seconds(), p.V*100)
	}
	if rs := hot.RPSSeries[noisy.ID]; rs != nil {
		for _, p := range rs.Points() {
			out.Add("noisy-rps-on-backend", p.T.Seconds(), p.V)
		}
	}
	for _, p := range victimLat.Points() {
		out.Add("victim-latency (ms)", p.T.Seconds(), p.V)
	}
	peak, final := 0.0, 0.0
	for _, p := range hot.Util.Points() {
		if p.V > peak {
			peak = p.V
		}
		final = p.V
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"backend CPU peaked at %.0f%% and settled at %.0f%% after %d Reuse operations (alert at %v); victim errors = %v",
		peak*100, final*100, len(planner.Events()), alertAt, victim.Errors.Value()))
	return out
}

// Fig17ScalingCDF reports the CDF of alert-to-recovery completion times for
// the Reuse and New strategies (Fig 17): P50 ≈ 55 s vs ≈ 17 min. The two
// strategies sample from their own independently seeded RNG streams, so they
// are a two-point parallel sweep.
func Fig17ScalingCDF(ctx context.Context) *Series {
	sample := func(seed int64, exec func(*rand.Rand) time.Duration) []float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, 0, 400)
		for i := 0; i < 400; i++ {
			// Completion = execute + settle (Table 4 timeline structure).
			out = append(out, (exec(rng) + scaling.SampleSettle(rng)).Seconds())
		}
		sort.Float64s(out)
		return out
	}
	var reuse, newer []float64
	ForEachPoint(ctx, 2, func(i int) {
		if i == 0 {
			reuse = sample(17, scaling.SampleReuseExec)
		} else {
			newer = sample(170, scaling.SampleNewExec)
		}
	})
	out := &Series{ID: "fig17", Title: "CDF of completion time of Reuse and New",
		XLabel: "seconds", YLabel: "CDF"}
	if len(reuse) == 0 || len(newer) == 0 {
		return out // cancelled mid-sweep; the Runner discards partial results
	}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99} {
		out.Add("reuse", reuse[int(q*float64(len(reuse)))], q)
		out.Add("new", newer[int(q*float64(len(newer)))], q)
	}
	p50r := reuse[len(reuse)/2]
	p50n := newer[len(newer)/2]
	out.Notes = append(out.Notes, fmt.Sprintf("P50: reuse %.0fs (paper ~55s), new %.1fmin (paper ~17min)", p50r, p50n/60))
	return out
}

// Tab04ScalingTimeline reproduces Table 4: the timeline of one Reuse and one
// New event, from traffic increase to below-threshold.
func Tab04ScalingTimeline() *Table {
	t := &Table{ID: "table4", Title: "Reuse and New event timelines",
		Headers: []string{"Milestone", "Reuse", "New"}}
	rng := rand.New(rand.NewSource(4))
	type timeline struct{ increase, exceed, execute, finish, below time.Duration }
	build := func(detect time.Duration, exec func(*rand.Rand) time.Duration) timeline {
		var tl timeline
		tl.increase = 0
		tl.exceed = tl.increase + 2*time.Minute + units.Nanos(rng.Int63n(int64(8*time.Minute)))
		tl.execute = tl.exceed + detect
		tl.finish = tl.execute + exec(rng)
		tl.below = tl.finish + scaling.SampleSettle(rng)
		return tl
	}
	reuse := build(84*time.Second, scaling.SampleReuseExec)
	newer := build(89*time.Second, scaling.SampleNewExec)
	rows := []struct {
		name string
		r, n time.Duration
	}{
		{"Traffic increase", reuse.increase, newer.increase},
		{"Exceed threshold", reuse.exceed, newer.exceed},
		{"Execute Reuse/New", reuse.execute, newer.execute},
		{"Finish Reuse/New", reuse.finish, newer.finish},
		{"Below threshold", reuse.below, newer.below},
	}
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("t+%v", r.r.Round(time.Second)), fmt.Sprintf("t+%v", r.n.Round(time.Second)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("execute->finish: reuse %v (paper 23s), new %v (paper ~17.5min)",
		(reuse.finish-reuse.execute).Round(time.Second), (newer.finish-newer.execute).Round(time.Second)))
	return t
}

// Fig18ScalingOccurrences simulates a month of capacity management in one
// region: daily demand spikes are absorbed by Reuse when idle backends
// exist; New runs far less often, replenishing the idle pool (Fig 18).
func Fig18ScalingOccurrences() *Series {
	out := &Series{ID: "fig18", Title: "Daily occurrences of Reuse and New",
		XLabel: "day", YLabel: "operations"}
	rng := rand.New(rand.NewSource(18))
	idlePool := 12 // backends with low water levels
	totalReuse, totalNew := 0, 0
	for day := 1; day <= 30; day++ {
		demand := 4 + rng.Intn(14) // scaling needs per day
		reuse, newOps := 0, 0
		for i := 0; i < demand; i++ {
			if idlePool > 0 {
				reuse++
				idlePool--
			} else {
				// All backends busy: provision (often done in advance).
				newOps++
				idlePool += 3 // a new backend serves several extends
			}
		}
		// Nightly load trough frees capacity back into the pool.
		idlePool += 2 + rng.Intn(6)
		if idlePool > 20 {
			idlePool = 20
		}
		out.Add("reuse", float64(day), float64(reuse))
		out.Add("new", float64(day), float64(newOps))
		totalReuse += reuse
		totalNew += newOps
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"month totals: %d reuse vs %d new — Reuse dominates daily operations (Fig 18)", totalReuse, totalNew))
	return out
}

// Fig19ShuffleSharding prints the backend combinations of the top services
// (Fig 19) and, as the ablation DESIGN.md calls out, contrasts the blast
// radius with naive range sharding.
func Fig19ShuffleSharding() *Table {
	t := &Table{ID: "fig19", Title: "Backend combinations from shuffle sharding",
		Headers: []string{"Service", "Backends (shuffle)", "Backends (naive)"}}
	const nBackends, shardSize, nServices = 20, 3, 20
	shuffle := sharding.NewAssigner(nBackends, shardSize, 19)
	naive := sharding.NewNaiveAssigner(nBackends, shardSize)
	shuffleAsg := map[string][]int{}
	naiveAsg := map[string][]int{}
	for i := 0; i < nServices; i++ {
		name := fmt.Sprintf("svc-%02d", i)
		shuffleAsg[name] = shuffle.Assign(name)
		naiveAsg[name] = naive.Assign(name)
		if i < 10 {
			t.AddRow(name, fmt.Sprint(shuffleAsg[name]), fmt.Sprint(naiveAsg[name]))
		}
	}
	ss := sharding.Analyze(shuffleAsg)
	ns := sharding.Analyze(naiveAsg)
	t.Notes = append(t.Notes,
		fmt.Sprintf("shuffle: full-overlap pairs %d, worst-case services lost to one shard failure %d of %d",
			ss.FullOverlapPairs, ss.AffectedByWorstFailure, ss.Services),
		fmt.Sprintf("naive ablation: full-overlap pairs %d, worst-case services lost %d of %d",
			ns.FullOverlapPairs, ns.AffectedByWorstFailure, ns.Services))
	return t
}

// Fig20DailyOps runs a compressed day of gateway traffic with operational
// events injected (service migration, version update, Reuse and New) and
// reports RPS and HTTP error codes over time: error codes track RPS with no
// spikes at the operations (Fig 20).
func Fig20DailyOps() *Series {
	sc := newGatewayScenario(20, 8, 2, 4, 10)
	s, g := sc.Sim, sc.GW
	const hourLen = 5 * time.Second // compressed day: 2 minutes total
	day := 24 * hourLen

	okSeries := telemetry.NewSeries("rps")
	errSeries := telemetry.NewSeries("errors")
	var okWindow, errWindow int

	// A small share of requests hit a quota-limited path, producing the
	// baseline user-side error codes the paper describes.
	for _, st := range sc.Services {
		cfg, _ := g.Engine().Config(fmt.Sprintf("svc-%d", st.ID))
		cfg.Rules = append(cfg.Rules, l7Rule())
		if err := g.Engine().Configure(cfg); err != nil {
			panic(err)
		}
	}

	tally := func(_ time.Duration, status int) {
		if status == 200 {
			okWindow++
		} else {
			errWindow++
		}
	}
	i := 0
	rate := workload.Sinusoid(2500, 1500, day, -6*hourLen)
	workload.OpenLoop(s, rate, 10*time.Millisecond, day, func() {
		i++
		st := sc.Services[i%len(sc.Services)]
		req := gwRequest()
		if i%200 == 0 {
			req.Path = "/quota-exceeded" // ~0.5% baseline error codes
		}
		g.Dispatch(st.ID, "az1", dispatchFlow(i), req, 1, tally)
	})
	s.Every(hourLen, func() bool {
		if s.Now() > day {
			return false
		}
		okSeries.Append(s.Now(), float64(okWindow)/hourLen.Seconds())
		errSeries.Append(s.Now(), float64(errWindow)/hourLen.Seconds())
		okWindow, errWindow = 0, 0
		return true
	})

	// Operational events through the day.
	s.At(3*hourLen, func() { // nightly rolling version update: 4 "hours"
		for _, b := range g.Backends() {
			b := b
			// Stagger upgrades with the sim's seeded RNG so each backend
			// draws a distinct (but reproducible) slot. Seeding from
			// len(b.ID) gave every backend the same delay.
			s.After(units.Nanos(s.Rand().Int63n(int64(4*hourLen))), func() {
				// Rolling upgrade: one replica at a time, traffic stays up.
				if len(b.Replicas) > 1 {
					b.Replicas[0].VM.Fail()
					s.After(hourLen/2, func() { b.Replicas[0].VM.Recover() })
				}
			})
		}
	})
	s.At(10*hourLen, func() { // service migration
		st := sc.Services[2]
		from := st.Backends[0]
		for _, to := range g.Backends() {
			if !to.HostsService(st.ID) && to.AZ == from.AZ {
				_ = g.MoveService(st.ID, from, to)
				break
			}
		}
	})
	planner := scaling.NewPlanner(s, g, sc.Region)
	s.At(14*hourLen, func() { // Reuse during the daily peak
		st := sc.Services[0]
		_, _ = planner.ScaleService(st.ID, st.Backends[0], s.Now(), nil)
	})
	s.Run()

	out := &Series{ID: "fig20", Title: "Daily operational data",
		XLabel: "hour", YLabel: "RPS / error RPS"}
	for _, p := range okSeries.Points() {
		out.Add("rps", p.T.Seconds()/hourLen.Seconds(), p.V)
	}
	for _, p := range errSeries.Points() {
		out.Add("error-codes", p.T.Seconds()/hourLen.Seconds(), p.V)
	}
	maxErr, meanRPS := 0.0, 0.0
	for _, p := range errSeries.Points() {
		if p.V > maxErr {
			maxErr = p.V
		}
	}
	for _, p := range okSeries.Points() {
		meanRPS += p.V
	}
	meanRPS /= float64(okSeries.Len())
	out.Notes = append(out.Notes, fmt.Sprintf(
		"error codes follow the RPS trend (max %.1f err/s vs mean %.0f RPS) with no spikes at migration/update/scaling events", maxErr, meanRPS))
	return out
}
