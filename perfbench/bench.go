package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ddpolice/internal/flood"
	"ddpolice/internal/sim"
)

// maxCycles bounds the cycles of one benchmark run.
const maxCycles = 100

// op is one sim.Run call: the benchmark's unit of work.
type op struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	res     *sim.Result
	err     error
}

func runOp(cfg sim.Config) op {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return op{
		wall:    wall,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		res:     res,
		err:     err,
	}
}

// digest hashes the simulated outputs of a run: the Result without the
// fields that depend on how the run executed (cache counters, stage
// timers, telemetry snapshot). Result holds no pointers besides the
// zeroed ones, so its %+v rendering is a pure function of the values.
func digest(r *sim.Result) string {
	c := *r
	c.Cache = flood.CacheStats{}
	c.Stages = nil
	c.Telemetry = nil
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(h[:])
}

// reconcile checks that the traced run's stage timers fit inside its
// host wall time; stage intervals are disjoint parts of the tick loop,
// so a larger sum means the timers are wrong.
func reconcile(o op) error {
	var sum time.Duration
	for _, s := range o.res.Stages {
		sum += s.Total
	}
	if sum > o.wall {
		return fmt.Errorf("stage timers sum to %v, more than the traced wall time %v", sum, o.wall)
	}
	return nil
}

// outcome is one benchmark run of one workload.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
}

func (o *outcome) fail(cfg sim.Config, pass string, err error) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf("seed %d %s pass: %v", cfg.Seed, pass, err))
	}
}

// benchWorkload runs one workload for about budget of host time, in
// cycles over the workload's configs. For each config a cycle times the
// set-up and one sim.Run with telemetry off; the first cycle also runs
// the config traced, with sim.Config.Telemetry on. Interleaving spreads
// the timed runs over the whole budget, and pairs each traced run with
// a timed run of the same config close in time. Cycles stop when the
// next would overrun the budget; the first always runs.
//
// Every sim.Run is checked: it must return no error, pass the
// workload's shape check, repeat the digest of the first run of its
// seed, and (traced) reconcile its stage timers with its wall time.
func benchWorkload(w workload, seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	cfgs := w.configs(seed)
	k := len(cfgs)
	setups := make([][]setupSample, k)
	timed := make([][]op, k)
	traced := make([]op, k)
	for cycle := 0; cycle < maxCycles; cycle++ {
		t0 := time.Now()
		var tracedWall time.Duration
		for i, cfg := range cfgs {
			s, err := timeSetup(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s set-up, seed %d: %w", w.name, cfg.Seed, err)
			}
			setups[i] = append(setups[i], s)
			timed[i] = append(timed[i], runOp(cfg))
			if cycle == 0 {
				tcfg := cfg
				tcfg.Telemetry = true
				traced[i] = runOp(tcfg)
				tracedWall += traced[i].wall
			}
		}
		next := time.Since(t0) - tracedWall
		if time.Since(start)+next > budget {
			break
		}
	}

	out := &outcome{}
	want := make([]string, k)
	for i, cfg := range cfgs {
		for _, o := range timed[i] {
			out.attempted++
			if err := checkOp(w, o, &want[i]); err != nil {
				out.fail(cfg, "timed", err)
			}
		}
		out.attempted++
		if err := checkOp(w, traced[i], &want[i]); err != nil {
			out.fail(cfg, "traced", err)
		} else if err := reconcile(traced[i]); err != nil {
			out.fail(cfg, "traced", err)
		}
	}
	out.metrics = computeMetrics(cfgs, setups, timed, traced)
	return out, nil
}

// checkOp applies the per-run checks. want holds the digest every run
// of the same seed must repeat; the first successful run sets it.
func checkOp(w workload, o op, want *string) error {
	if o.err != nil {
		return o.err
	}
	d := digest(o.res)
	if *want == "" {
		*want = d
	} else if d != *want {
		return fmt.Errorf("simulated outputs differ from an earlier run of the same seed")
	}
	return w.check(o.res)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// stageMetric maps sim.StageNames onto per-layer metric names. The
// proposal stage runs only with Shards > 1, which no workload sets.
var stageMetric = map[string]string{
	"churn":    "overlay.churn_ns_per_tick",
	"attack":   "attack.ns_per_tick",
	"querygen": "workload.querygen_ns_per_tick",
	"flood":    "flood.query_ns_per_tick",
	"police":   "police.ns_per_tick",
	"metrics":  "metrics.ns_per_tick",
}

var setupMetric = [numSetupLayers]string{
	setupTopology: "topology.build_ms",
	setupOverlay:  "overlay.build_ms",
	setupWorkload: "workload.build_ms",
	setupAttack:   "attack.build_ms",
	setupPolice:   "police.init_ms",
	setupFlood:    "flood.build_ms",
}

// computeMetrics reduces one run's samples. Each end-to-end and set-up
// metric is a per-config value (host times: the median over the
// config's repetitions) reduced by the median over the cycle's configs,
// so one congested seed or one slow interval moves it little. The
// traced pass is summed over the cycle and reported per tick or per
// run. Failed runs are left out.
func computeMetrics(cfgs []sim.Config, setups [][]setupSample, timed [][]op, traced []op) map[string]float64 {
	m := make(map[string]float64)
	var (
		walls, setupS, nsPeerTick, allocs, bytes []float64
		stateMB                                  []float64
		success, p95, control                    []float64
		setupLayer                               [numSetupLayers][]float64
	)
	medSetup := make([]float64, len(cfgs))
	medWall := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		ticks := float64(cfg.DurationSec)
		var tot, state []float64
		var lay [numSetupLayers][]float64
		for _, s := range setups[i] {
			tot = append(tot, s.total.Seconds())
			state = append(state, s.stateBytes/(1<<20))
			for l, d := range s.layer {
				lay[l] = append(lay[l], float64(d)/1e6)
			}
		}
		medSetup[i] = median(tot)
		setupS = append(setupS, medSetup[i])
		stateMB = append(stateMB, median(state))
		for l := range lay {
			setupLayer[l] = append(setupLayer[l], median(lay[l]))
		}

		var w, a, b []float64
		var res *sim.Result
		for _, o := range timed[i] {
			if o.err != nil {
				continue
			}
			res = o.res
			w = append(w, o.wall.Seconds())
			a = append(a, float64(o.mallocs))
			b = append(b, float64(o.bytes))
		}
		if res == nil {
			continue
		}
		medWall[i] = median(w)
		walls = append(walls, medWall[i])
		nsPeerTick = append(nsPeerTick, (medWall[i]-medSetup[i])*1e9/(float64(cfg.NumPeers)*ticks))
		allocs = append(allocs, median(a)/ticks)
		bytes = append(bytes, median(b)/ticks)
		success = append(success, res.OverallSuccess)
		p95 = append(p95, res.ResponseP95)
		control = append(control, float64(res.Overhead.Total()))
	}
	m["wall_s"] = median(walls)
	m["setup_s"] = median(setupS)
	m["ns_per_peer_tick"] = median(nsPeerTick)
	m["allocs_per_tick"] = median(allocs)
	m["alloc_bytes_per_tick"] = median(bytes)
	m["state_heap_mb"] = median(stateMB)
	m["process.max_rss_mb"] = maxRSSMB()
	m["success_rate"] = median(success)
	m["response_p95_s"] = median(p95)
	m["control_msgs"] = median(control)
	for l, name := range setupMetric {
		m[name] = median(setupLayer[l])
	}

	// Traced pass: sums over the cycle, then per tick or per run.
	var (
		runs, ticks, unattributed float64
		tracedWall, timedWall     float64
		stageNs                   = make(map[string]float64)
		counters                  = make(map[string]float64)
	)
	add := func(name string, v float64) { counters[name] += v }
	for i, o := range traced {
		if o.err != nil {
			continue
		}
		r := o.res
		runs++
		ticks += float64(cfgs[i].DurationSec)
		tracedWall += o.wall.Seconds()
		timedWall += medWall[i]
		var staged time.Duration
		for _, s := range r.Stages {
			staged += s.Total
			if name, ok := stageMetric[s.Name]; ok {
				stageNs[name] += float64(s.Total)
			}
		}
		unattributed += float64(o.wall-staged) - medSetup[i]*1e9
		if r.Telemetry != nil {
			for _, c := range r.Telemetry.Counters {
				add(c.Name, float64(c.Value))
			}
		}
		add("flood.cache_hits", float64(r.Cache.Hits))
		add("flood.cache_builds", float64(r.Cache.Builds))
		add("flood.cache_fallbacks", float64(r.Cache.Fallbacks))
		add("flood.cache_flushes", float64(r.Cache.Flushes))
		add("attack.query_msgs", r.AttackVolume)
		add("workload.queries_issued", float64(r.QueriesIssued))
		add("police.list_msgs", float64(r.Overhead.NeighborListMsgs))
		add("police.nt_msgs", float64(r.Overhead.NeighborTrafficMsgs))
		add("police.verify_msgs", float64(r.Overhead.VerifyMsgs))
		add("police.control_lost", float64(r.ControlLost))
		add("police.detections", float64(r.Detections))
		add("police.agents_missed", float64(r.FalsePositives))
		add("police.good_peers_cut", float64(r.FalseNegatives))
		add("overlay.cut_edges", float64(r.CutEdges))
	}
	if runs == 0 {
		return m
	}
	for _, name := range stageMetric {
		m[name] = stageNs[name] / ticks
	}
	m["sim.unattributed_ns_per_tick"] = unattributed / ticks
	for _, name := range []string{
		"flood.floods", "flood.edges_traversed", "flood.dup_suppressed", "flood.budget_drops",
		"flood.cache_hits", "flood.cache_builds", "flood.cache_fallbacks", "flood.cache_flushes",
		"attack.query_msgs", "workload.queries_issued",
		"police.list_msgs", "police.nt_msgs", "police.verify_msgs", "police.control_lost",
		"police.detections", "police.agents_missed", "police.good_peers_cut", "overlay.cut_edges",
	} {
		m[name] = counters[name] / runs
	}
	if edges := counters["flood.edges_traversed"]; edges > 0 {
		m["flood.ns_per_edge"] = (stageNs["flood.query_ns_per_tick"] + stageNs["attack.ns_per_tick"]) / edges
	} else {
		m["flood.ns_per_edge"] = 0
	}
	hits := counters["flood.cache_hits"]
	if tries := hits + counters["flood.cache_builds"] + counters["flood.cache_fallbacks"]; tries > 0 {
		m["flood.cache_useful_frac"] = hits / tries
	} else {
		m["flood.cache_useful_frac"] = 0
	}
	if timedWall > 0 {
		m["telemetry.overhead_frac"] = tracedWall/timedWall - 1
	}
	return m
}
