package main

import (
	"runtime"
	"time"

	"ddpolice/internal/attack"
	"ddpolice/internal/flood"
	"ddpolice/internal/metrics"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/rng"
	"ddpolice/internal/sim"
	"ddpolice/internal/topology"
	querygen "ddpolice/internal/workload"
)

// Set-up layers, in the order sim.Run builds them.
const (
	setupTopology = iota
	setupOverlay
	setupWorkload
	setupAttack
	setupPolice
	setupFlood
	numSetupLayers
)

// setupSample is one timed set-up: the host time of each layer's
// constructors and the live heap the built state holds.
type setupSample struct {
	layer      [numSetupLayers]time.Duration
	total      time.Duration
	stateBytes float64
}

// timeSetup builds everything sim.Run builds before its first tick, for
// the configs the workloads use, with the same constructors, config and
// random-stream order, and times each layer. Then it measures the live
// heap the state holds, by a full GC with every object still referenced,
// and drops the objects.
func timeSetup(cfg sim.Config) (setupSample, error) {
	var s setupSample
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	last := time.Now()
	lap := func(layer int) {
		now := time.Now()
		s.layer[layer] += now.Sub(last)
		last = now
	}

	root := rng.New(cfg.Seed)
	g, err := topology.BarabasiAlbert(root.Split(), cfg.NumPeers, cfg.TopologyM)
	if err != nil {
		return s, err
	}
	lap(setupTopology)
	ov := overlay.New(g)
	lap(setupOverlay)
	cat, err := querygen.NewCatalog(cfg.Catalog, cfg.NumPeers, root.Split())
	if err != nil {
		return s, err
	}
	qgen, err := querygen.NewQueryGen(cat, cfg.QueriesPerMin, root.Split())
	if err != nil {
		return s, err
	}
	lap(setupWorkload)
	fleet, err := attack.NewFleet(cfg.NumAgents, cfg.NumPeers, cfg.Agent, cfg.Links, root.Split())
	if err != nil {
		return s, err
	}
	lap(setupAttack)
	var pol *police.Police
	if cfg.PoliceEnabled {
		if pol, err = police.New(ov, cfg.Police); err != nil {
			return s, err
		}
		for _, a := range fleet.Agents() {
			pol.SetBad(a.ID, cfg.Agent.Cheat)
		}
	}
	lap(setupPolice)
	var churn *overlay.Churn
	if cfg.ChurnEnabled {
		churn = overlay.NewChurn(ov, cfg.Churn, root.Split())
		for _, a := range fleet.Agents() {
			churn.Pin(a.ID)
		}
	}
	for _, a := range fleet.Agents() {
		ov.SetOnline(a.ID, false)
	}
	lap(setupOverlay)
	eng := flood.NewEngine(ov)
	budget := flood.NewBudget(cfg.NumPeers, cfg.GoodCapacityPerMin/60)
	coll := metrics.NewCollector()
	lap(setupFlood)
	if pol != nil {
		for v := 0; v < cfg.NumPeers; v++ {
			if ov.Online(overlay.PeerID(v)) {
				pol.NotifyJoin(overlay.PeerID(v), 0)
			}
		}
	}
	lap(setupPolice)
	for _, d := range s.layer {
		s.total += d
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.stateBytes = float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	runtime.KeepAlive(qgen)
	runtime.KeepAlive(pol)
	runtime.KeepAlive(churn)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(budget)
	runtime.KeepAlive(coll)
	return s, nil
}
