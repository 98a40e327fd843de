package flood

import (
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// cachePair builds two independent overlays over the same static graph
// and one engine on each: A with the traversal cache, B without. Graphs
// are immutable, so sharing one is safe.
func cachePair(t *testing.T, seed uint64, n, m int) (ovA, ovB *overlay.Overlay, engA, engB *Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	ovA, ovB = overlay.New(g), overlay.New(g)
	engA, engB = NewEngine(ovA), NewEngine(ovB)
	engB.SetTraversalCache(false)
	if !engA.TraversalCacheEnabled() || engB.TraversalCacheEnabled() {
		t.Fatal("cache toggle wiring broken")
	}
	return ovA, ovB, engA, engB
}

// assertOverlayTrafficEqual compares the accumulating per-edge counters
// bit for bit.
func assertOverlayTrafficEqual(t *testing.T, step int, ovA, ovB *overlay.Overlay) {
	t.Helper()
	for e := 0; e < ovA.NumDirectedEdges(); e++ {
		a := ovA.CurrentMinuteEdge(overlay.EdgeID(e))
		b := ovB.CurrentMinuteEdge(overlay.EdgeID(e))
		if a != b {
			t.Fatalf("step %d: edge %d traffic diverged: cached=%v uncached=%v", step, e, a, b)
		}
	}
}

func assertBudgetsEqual(t *testing.T, step int, ba, bb *Budget) {
	t.Helper()
	for i := range ba.Remaining {
		if ba.Remaining[i] != bb.Remaining[i] {
			t.Fatalf("step %d: peer %d budget diverged: cached=%v uncached=%v", step, i, ba.Remaining[i], bb.Remaining[i])
		}
	}
}

// TestCachedQueryByteIdentical drives identical flood sequences through
// a cached and an uncached engine under a budget tight enough to force
// physical-mode drops (exercising the precheck fallback) and asserts
// every result field, edge counter, and budget cell stays bit-equal.
func TestCachedQueryByteIdentical(t *testing.T) {
	for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
		_, _, engA, engB := cachePair(t, 11, 400, 3)
		ovA, ovB := engA.ov, engB.ov
		engA.SetCounterMode(mode)
		engB.SetCounterMode(mode)
		ba, bb := NewBudget(400, 12), NewBudget(400, 12)
		dm := DefaultDelayModel()
		holders := []topology.NodeID{7, 99, 250}
		r := rng.New(42)
		for step := 0; step < 600; step++ {
			if step%50 == 0 {
				ba.Refill()
				bb.Refill()
			}
			src := PeerID(r.Intn(40)) // few sources → repeats → trees build+replay
			ra := engA.FloodQuery(src, 4, holders, ba, dm)
			rb := engB.FloodQuery(src, 4, holders, bb, dm)
			if ra != rb {
				t.Fatalf("mode %v step %d src %d: result diverged:\ncached:   %+v\nuncached: %+v", mode, step, src, ra, rb)
			}
			assertOverlayTrafficEqual(t, step, ovA, ovB)
			assertBudgetsEqual(t, step, ba, bb)
		}
		st := engA.CacheStats()
		if st.Builds == 0 || st.Hits == 0 {
			t.Fatalf("mode %v: cache never engaged: %+v", mode, st)
		}
	}
}

// TestCachedBatchByteIdentical does the same for fluid batches,
// including entry-restricted (spray-pattern) floods and weights big
// enough to clip.
func TestCachedBatchByteIdentical(t *testing.T) {
	for _, mode := range []CounterMode{CounterPhysical, CounterIdeal} {
		_, _, engA, engB := cachePair(t, 5, 300, 3)
		ovA, ovB := engA.ov, engB.ov
		engA.SetCounterMode(mode)
		engB.SetCounterMode(mode)
		ba, bb := NewBudget(300, 40), NewBudget(300, 40)
		r := rng.New(7)
		for step := 0; step < 500; step++ {
			if step%25 == 0 {
				ba.Refill()
				bb.Refill()
			}
			src := PeerID(r.Intn(20))
			entry := PeerID(-1)
			if step%3 == 0 {
				nbrs := ovA.Graph().Neighbors(src)
				entry = nbrs[r.Intn(len(nbrs))]
			}
			w := 0.5 + 3*r.Float64()
			ra := engA.FloodBatch(src, entry, 4, w, ba)
			rb := engB.FloodBatch(src, entry, 4, w, bb)
			if ra != rb {
				t.Fatalf("mode %v step %d src %d entry %d: batch diverged:\ncached:   %+v\nuncached: %+v", mode, step, src, entry, ra, rb)
			}
			assertOverlayTrafficEqual(t, step, ovA, ovB)
			assertBudgetsEqual(t, step, ba, bb)
		}
		st := engA.CacheStats()
		if st.Builds == 0 || st.Hits == 0 {
			t.Fatalf("mode %v: cache never engaged: %+v", mode, st)
		}
	}
}

// TestCacheInvalidationOnMutation mutates the overlay mid-sequence —
// churn (SetOnline), cuts and heals — and asserts the cached engine
// tracks the uncached one through every flush.
func TestCacheInvalidationOnMutation(t *testing.T) {
	_, _, engA, engB := cachePair(t, 23, 300, 3)
	ovA, ovB := engA.ov, engB.ov
	ba, bb := NewBudget(300, 1e9), NewBudget(300, 1e9)
	dm := DefaultDelayModel()
	holders := []topology.NodeID{120, 200}
	r := rng.New(99)
	mutate := func(step int) {
		v := PeerID(100 + r.Intn(100))
		switch step % 3 {
		case 0:
			on := !ovA.Online(v)
			ovA.SetOnline(v, on)
			ovB.SetOnline(v, on)
		case 1:
			w := ovA.Graph().Neighbors(v)[0]
			if err := ovA.Cut(v, w); err != nil {
				t.Fatal(err)
			}
			if err := ovB.Cut(v, w); err != nil {
				t.Fatal(err)
			}
		case 2:
			w := ovA.Graph().Neighbors(v)[0]
			ovA.Uncut(v, w)
			ovB.Uncut(v, w)
		}
	}
	for step := 0; step < 400; step++ {
		if step%40 == 39 {
			mutate(step)
		}
		src := PeerID(r.Intn(30))
		ra := engA.FloodQuery(src, 4, holders, ba, dm)
		rb := engB.FloodQuery(src, 4, holders, bb, dm)
		if ra != rb {
			t.Fatalf("step %d src %d: result diverged after mutation:\ncached:   %+v\nuncached: %+v", step, src, ra, rb)
		}
		assertOverlayTrafficEqual(t, step, ovA, ovB)
	}
	st := engA.CacheStats()
	if st.Flushes == 0 {
		t.Fatalf("mutations never flushed the cache: %+v", st)
	}
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("cache never re-engaged between mutations: %+v", st)
	}
}

// TestCacheEagerBuildAfterStability verifies the adaptive build policy:
// under a stable topology the engine switches from build-on-second-use
// to build-on-first-use once cacheBuildAfterFloods floods pass.
func TestCacheEagerBuildAfterStability(t *testing.T) {
	ov := lineGraph(t, 12)
	eng := NewEngine(ov)
	b := bigBudget(12)
	dm := DefaultDelayModel()
	// Burn past the stability threshold with one repeating source.
	for i := uint64(0); i < cacheBuildAfterFloods+1; i++ {
		eng.FloodQuery(0, 3, nil, b, dm)
	}
	before := eng.CacheStats()
	eng.FloodQuery(5, 3, nil, b, dm) // first use of a fresh key
	eng.FloodQuery(5, 3, nil, b, dm)
	after := eng.CacheStats()
	if after.Builds != before.Builds+1 {
		t.Fatalf("expected eager build on first use after stability, stats before=%+v after=%+v", before, after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("expected replay hit on second use, stats before=%+v after=%+v", before, after)
	}
}

// TestCacheSkipsSaturatedTree checks the physical-mode clipping rules.
// A clipped flood on its build sighting stores no tree (its traversal
// was not structural); the key records its tree once it floods
// unclipped. A stored tree whose precheck then keeps failing stops
// attempting replay until the next flush, and the engine keeps
// producing correct (live) results throughout.
func TestCacheSkipsSaturatedTree(t *testing.T) {
	ovA := lineGraph(t, 8)
	ovB := lineGraph(t, 8)
	engA, engB := NewEngine(ovA), NewEngine(ovB)
	engB.SetTraversalCache(false)
	dm := DefaultDelayModel()
	// Tokens for the first hops only: peers 4+ never have budget, so the
	// flood clips and a cached structural tree always fails the precheck.
	saturated := func() *Budget {
		b := NewBudget(8, 0)
		for i := 0; i < 4; i++ {
			b.PerTick[i] = 5
			b.Remaining[i] = 5
		}
		return b
	}
	run := func(step int, mk func() *Budget) {
		t.Helper()
		ra := engA.FloodQuery(0, 7, []topology.NodeID{6}, mk(), dm)
		rb := engB.FloodQuery(0, 7, []topology.NodeID{6}, mk(), dm)
		if ra != rb {
			t.Fatalf("step %d: diverged:\ncached:   %+v\nuncached: %+v", step, ra, rb)
		}
	}

	// First sighting marks the key; the second is its build sighting,
	// but the flood clips, so nothing is stored.
	run(0, saturated)
	run(1, saturated)
	if st := engA.CacheStats(); st.Builds != 0 || st.Trees != 0 {
		t.Fatalf("clipped flood stored a tree: %+v", st)
	}

	// An unclipped sighting records the tree.
	run(2, func() *Budget { return bigBudget(8) })
	if st := engA.CacheStats(); st.Builds != 1 {
		t.Fatalf("unclipped flood did not record its tree: %+v", st)
	}

	// Saturated again: replay prechecks fail until the skip flag arms.
	for step := 3; step < 13; step++ {
		run(step, saturated)
	}
	st := engA.CacheStats()
	if st.Fallbacks == 0 {
		t.Fatalf("expected precheck fallbacks, stats %+v", st)
	}
	if st.Fallbacks > uint64(cacheSkipAfterFails) {
		t.Fatalf("skip flag did not arm after %d failures: %+v", cacheSkipAfterFails, st)
	}
	if st.Builds != 1 {
		t.Fatalf("skipped tree was rebuilt: %+v", st)
	}
}

// TestFairShareTracksChurn is the regression test for the stale-share
// bug: EnableFairShare used to split capacity by *static* degree once,
// so a peer whose neighbor left kept the old (smaller) per-link share
// and a rejoining peer's links were never re-capped. The split must
// follow the overlay's active degree across churn.
func TestFairShareTracksChurn(t *testing.T) {
	ov := star(t, 5) // hub 0 with leaves 1..4
	b := NewBudget(5, 8)
	b.EnableFairShare(ov)
	hub := PeerID(0)
	e1, _ := ov.FindEdge(1, hub) // arrival edge 1 -> hub
	if got := b.arrivalCap(hub, e1); got != 2 {
		t.Fatalf("initial share: got %v, want capacity/degree = 8/4 = 2", got)
	}
	// Two leaves leave: the hub's capacity now splits across 2 links.
	ov.SetOnline(3, false)
	ov.SetOnline(4, false)
	b.Refill()
	if got := b.arrivalCap(hub, e1); got != 4 {
		t.Fatalf("share after churn: got %v, want 8/2 = 4", got)
	}
	// One leaf rejoins; its link must be re-capped, not left at zero or
	// at a stale value.
	ov.SetOnline(3, true)
	b.Refill()
	e3, _ := ov.FindEdge(3, hub)
	if got := b.arrivalCap(hub, e3); got != 8.0/3 {
		t.Fatalf("rejoined link share: got %v, want 8/3", got)
	}
	if got := b.arrivalCap(hub, e1); got != 8.0/3 {
		t.Fatalf("surviving link share: got %v, want 8/3", got)
	}
	// A cut edge also changes the split.
	if err := ov.Cut(hub, 1); err != nil {
		t.Fatal(err)
	}
	b.Refill()
	if got := b.arrivalCap(hub, e3); got != 4 {
		t.Fatalf("share after cut: got %v, want 8/2 = 4", got)
	}
}
