package main

import (
	"fmt"

	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
)

// workload is one input family of the benchmark. Every workload runs
// DD-POLICE with the engine defaults users get from sim.DefaultConfig
// (Shards 0, traversal cache on, no journal, events or trace). README.md
// gives the reason for each.
type workload struct {
	name string
	// runs is how many sim.Run configs, each with its own seed derived
	// from the benchmark seed, make up one cycle of the workload.
	runs int
	// config returns the workload's sim.Config with Seed left zero.
	config func() sim.Config
	// check is the workload's shape check on a finished run, anchored
	// on the figures in EXPERIMENTS.md.
	check func(*sim.Result) error
}

// undefendedSuccess is the overall success rate of the 10-agent run
// without DD-POLICE (EXPERIMENTS.md, Figs 9-11). The defended run must
// beat it.
const undefendedSuccess = 0.503

var workloads = []workload{
	{
		name: "paper-2k",
		// The paper's Figs 9-12 run: churn, police and attack all work
		// and the traversal cache is bypassed.
		runs: 40,
		config: func() sim.Config {
			cfg := sim.DefaultConfig()
			cfg.NumAgents = 10
			cfg.PoliceEnabled = true
			return cfg
		},
		// Agents missed is reported, not checked: a few configs leave an
		// agent whose indicator never reaches the cut threshold (see
		// README.md).
		check: func(r *sim.Result) error {
			if r.OverallSuccess <= undefendedSuccess {
				return fmt.Errorf("defended success %.4f not above the undefended %.3f", r.OverallSuccess, undefendedSuccess)
			}
			return nil
		},
	},
	{
		name: "quiet-2k-static",
		// No-attack baseline on a fixed overlay: flood dominates and the
		// traversal cache works as designed.
		runs: 20,
		config: func() sim.Config {
			cfg := sim.DefaultConfig()
			cfg.ChurnEnabled = false
			cfg.PoliceEnabled = true
			return cfg
		},
		check: func(r *sim.Result) error {
			if r.Detections != 0 || r.CutEdges != 0 {
				return fmt.Errorf("%d detections and %d cut edges without an attack, want none", r.Detections, r.CutEdges)
			}
			return nil
		},
	},
	{
		name: "attack-100k-static",
		// Scale: set-up and memory matter and the cache is net overhead.
		// One minute is the shortest run; the attack starts half-way so
		// the minute-end police evaluation sees it.
		runs: 2,
		config: func() sim.Config {
			cfg := sim.DefaultConfig()
			cfg.NumPeers = 100000
			cfg.NumAgents = 100
			cfg.ChurnEnabled = false
			cfg.PoliceEnabled = true
			cfg.AttackStartSec = 30
			cfg.DurationSec = 60
			return cfg
		},
		check: func(r *sim.Result) error {
			if r.Detections == 0 {
				return fmt.Errorf("no detections under attack")
			}
			return nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// configs returns the workload's cycle of configs for one benchmark
// seed. Seeds are pure functions of (seed, run index), so the same
// benchmark seed always yields the same inputs.
func (w workload) configs(seed uint64) []sim.Config {
	out := make([]sim.Config, w.runs)
	for i := range out {
		cfg := w.config()
		cfg.Seed = rng.SubSeed(seed, uint64(i))
		out[i] = cfg
	}
	return out
}
