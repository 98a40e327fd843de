package sim

import (
	"fmt"
	"runtime"
	"testing"

	"ddpolice/internal/faults"
	"ddpolice/internal/journal"
	"ddpolice/internal/overload"
)

// denseMatrixConfig is the base configuration for the dense-vs-map
// representation cross-check: a police+attack run (so the per-edge
// detection state — the representation under test — is actually
// exercised) at the given overlay size. Agent count scales with the
// overlay so attack density stays near the paper's <=1% regime.
func denseMatrixConfig(peers int) Config {
	cfg := DefaultConfig()
	cfg.NumPeers = peers
	cfg.DurationSec = 360
	cfg.AttackStartSec = 60
	cfg.ChurnEnabled = false
	cfg.PoliceEnabled = true
	cfg.NumAgents = peers / 250
	cfg.Catalog.NumObjects = 2000
	return cfg
}

// denseMatrixScenarios enumerates the overlay-mutation regimes the
// dense/map equivalence must hold under. Every scenario keeps
// DD-POLICE on (otherwise the two representations share all code), and
// each adds one mutation source on top of the attack: none (detection
// cuts are the mutation), continuous churn, a timed partition, and a
// scheduled capacity brownout with the overload plane engaged. The last
// three cover the list-exchange variants: lying agents caught by list
// verification (private per-receiver lists and mid-exchange cuts),
// event-driven exchange under churn, and short list expiry under churn.
func denseMatrixScenarios() []struct {
	name string
	cfg  func(peers int) Config
} {
	return []struct {
		name string
		cfg  func(peers int) Config
	}{
		{"cuts", denseMatrixConfig},
		{"churn", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.ChurnEnabled = true
			return cfg
		}},
		{"partition", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.Faults = &faults.Schedule{Partitions: []faults.PartitionEvent{
				{StartSec: 90, EndSec: 240, Peers: []int{1, 2, 3, 4, 5, 6, 7, 8}},
			}}
			return cfg
		}},
		{"brownout", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.Overload = &overload.SimPlane{}
			cfg.Faults = &faults.Schedule{Overloads: []faults.OverloadEvent{
				{StartSec: 120, EndSec: 240, Peers: []int{10, 11, 12}, Factor: 0.25},
			}}
			return cfg
		}},
		{"liars", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.AgentsLieAboutLists = true
			cfg.Police.VerifyLists = true
			return cfg
		}},
		{"event-driven", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.ChurnEnabled = true
			cfg.Police.EventDriven = true
			return cfg
		}},
		{"stale", func(peers int) Config {
			cfg := denseMatrixConfig(peers)
			cfg.ChurnEnabled = true
			cfg.Police.StaleAfter = 90
			return cfg
		}},
	}
}

// TestDenseMapByteIdentical is the scale pass's representation matrix:
// for every mutation scenario at 2k and 10k peers, the dense
// directed-edge-indexed police state (the default) and the legacy
// map[PeerID]-keyed state (Police.LegacyMapState) must be
// indistinguishable — equal Results (modulo Cache) and byte-identical
// event, journal, and trace streams. The representations differ only
// in memory layout; any divergence here means the dense path changed
// iteration order or dropped an update the map path applied.
func TestDenseMapByteIdentical(t *testing.T) {
	sizes := []int{2000, 10000}
	if testing.Short() || raceDetectorOn {
		// The race detector multiplies each run ~5-10x; the 2k matrix
		// still exercises every scenario under -race, and the plain
		// `make test` pass covers the 10k legs.
		sizes = sizes[:1]
	}
	for _, peers := range sizes {
		for _, sc := range denseMatrixScenarios() {
			t.Run(fmt.Sprintf("%s/%dk", sc.name, peers/1000), func(t *testing.T) {
				dense := sc.cfg(peers)
				legacy := sc.cfg(peers)
				legacy.Police.LegacyMapState = true
				dr, evD, jrD, spD := runTraced(t, dense)
				lr, evL, jrL, spL := runTraced(t, legacy)
				scenario := fmt.Sprintf("%s@%d", sc.name, peers)
				assertSameRun(t, scenario, "dense", "legacy-map",
					dr, lr, evD, evL, jrD, jrL)
				if string(spD) != string(spL) {
					t.Fatalf("%s: trace streams diverged (%d vs %d bytes)",
						scenario, len(spD), len(spL))
				}
				if len(spD) == 0 {
					t.Fatalf("%s: no spans traced (vacuous)", scenario)
				}
				// Vacuousness guard for the representation itself: the
				// cuts scenario must actually drive the per-edge state
				// machine to disconnection, so the compared streams
				// contain real detection traffic, not just silence.
				if sc.name == "cuts" {
					if cuts := journalEvents(t, jrD, journal.TypeCut); len(cuts) == 0 {
						t.Fatalf("%s: no cut events journaled — matrix is vacuous", scenario)
					}
				}
				// The liars scenario must reach list verification's
				// disconnects (the only cuts with g = s = 0 here, as the
				// blacklist is off), or the private-list path went
				// untested.
				if sc.name == "liars" {
					verified := 0
					for _, c := range journalEvents(t, jrD, journal.TypeCut) {
						if c.G == 0 && c.S == 0 {
							verified++
						}
					}
					if verified == 0 {
						t.Fatalf("%s: no list-verification cuts — scenario is vacuous", scenario)
					}
				}
			})
		}
	}
}

// TestTickMarginalAllocsBounded is the in-test mirror of ddbench's
// tick_100k_allocs_per_peer gate, cheap enough for racesmoke: with the
// pooled per-tick buffers (epoch-marked slices, budget touch lists,
// query-trace pool, the engine's reused recording tree) the steady tick loop
// allocates O(workload), not O(peers). Differencing a 240s run against
// a 120s run cancels setup cost, leaving the per-tick marginal
// allocation rate, which must stay under the same 0.10-per-peer
// ceiling the benchmark gate enforces (steady state measures ~0.03;
// an O(N) rescan reintroduced into the tick loop shows up as >= 1).
func TestTickMarginalAllocsBounded(t *testing.T) {
	run := func(durationSec int) uint64 {
		cfg := DefaultConfig()
		cfg.NumPeers = 2000
		cfg.ChurnEnabled = false
		cfg.DurationSec = durationSec
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	short, long := run(120), run(240)
	if long <= short {
		t.Fatalf("marginal allocs non-positive (%d vs %d): measurement broken", short, long)
	}
	perPeerTick := float64(long-short) / 120 / 2000
	const ceiling = 0.10 // keep in sync with allocsPerPeerTickMax in cmd/ddbench
	t.Logf("marginal allocs per peer per tick: %.4f", perPeerTick)
	if perPeerTick > ceiling {
		t.Fatalf("marginal allocs per peer per tick = %.4f, want <= %.2f (tick loop no longer O(active))",
			perPeerTick, ceiling)
	}
}
