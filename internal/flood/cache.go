// Traversal cache: the TTL-bounded first-visit tree of a flood is a
// pure function of overlay connectivity (who is online, which edges are
// cut) — not of budgets or delays — whenever every visited peer keeps
// forwarding. The cache memoizes that tree per (source, entry, TTL) and
// replays it across ticks, re-running the per-tick parts (capacity
// clipping, queueing delay, fair-share accounting) live on the cached
// visit order. Trees are recorded as a byproduct of a live flood (and
// kept only when that flood was provably structural — no forwarding
// peer clipped away); there is no separate build pass. overlay.Version()
// keys validity: any join/leave or cut/uncut (including partition
// apply/heal) bumps it and flushes the cache.
//
// Replay is only attempted when it provably reproduces the uncached
// traversal byte for byte:
//
//   - In the ideal counter plane the tree is always structural, so
//     replay is always sound.
//   - In the physical plane a capacity-dropped peer stops forwarding,
//     which would reshape the tree. Replay therefore prechecks the
//     cached visits against the current budget (each peer and each
//     directed edge is charged at most once per flood, so budget cells
//     read before any take of this flood keep their values until their
//     own visit) and falls back to the live BFS if any visit would
//     clip. Floating-point accumulation per visit mirrors the live
//     event order exactly — same adds, same values, same sequence.
package flood

import "ddpolice/internal/overlay"

// noEntry keys an unrestricted flood (FloodQuery, or FloodBatch with
// entry < 0) in the tree cache.
const noEntry PeerID = -1

// Cache tuning. Exposed as vars only to the package tests.
var (
	// cacheBuildAfterFloods: once the overlay version has been stable
	// for this many floods, trees are built on first use; below it, a
	// (src, entry, ttl) key must be requested twice before its tree is
	// built, so a churn-heavy run does not pay build costs for trees it
	// will never replay.
	cacheBuildAfterFloods uint64 = 192
	// cacheSkipAfterFails: consecutive physical-mode precheck failures
	// before a tree stops attempting replay until the next version
	// change (saturated regions fail the precheck every tick).
	cacheSkipAfterFails = 2
	// cacheMaxVisits bounds total cached tree memory (visit + node
	// entries across all trees); exceeding it flushes the whole cache.
	cacheMaxVisits = 1 << 21
)

// treeKey identifies one memoized traversal.
type treeKey struct {
	src   PeerID
	entry PeerID
	ttl   int32
}

// visit is one first-visit event: peer v first reached at hop depth via
// directed edge eid from parent.
type visit struct {
	v      PeerID
	parent PeerID
	eid    overlay.EdgeID
	depth  int32
}

// travNode is one forwarding peer in frontier order, with its edge
// events: edges counts every copy it puts on a link (first visits +
// duplicates), dups the duplicate-suppressed subset, and
// visits[vStart:vStart+vCount] its first-visit children.
type travNode struct {
	u      PeerID
	vStart int32
	vCount int32
	edges  int32
	dups   int32
}

// travTree is the memoized first-visit tree of one (src, entry, ttl).
type travTree struct {
	nodes      []travNode
	visits     []visit
	edgeEvents uint64 // Σ nodes[i].edges
	dupEvents  uint64 // Σ nodes[i].dups
	failStreak int
	skip       bool // replay disabled until next version flush
}

// CacheStats reports traversal-cache effectiveness counters.
type CacheStats struct {
	Hits      uint64 // floods served by tree replay
	Misses    uint64 // floods with no usable tree (includes builds)
	Builds    uint64 // trees recorded from structural live floods
	Fallbacks uint64 // replays abandoned by the physical-mode precheck
	Flushes   uint64 // whole-cache invalidations (version change or size cap)
	Trees     int    // trees currently cached
}

// travCache holds the memoized first-visit trees of the current
// overlay version. Connectivity itself is not snapshotted: traversals
// read edge liveness from the overlay in place (overlay.EdgeLive).
type travCache struct {
	version uint64
	synced  bool

	trees        map[treeKey]*travTree
	seenOnce     map[treeKey]struct{}
	floodsStable uint64 // floods since the last version change
	cachedVisits int    // Σ len(visits)+len(nodes) over trees

	stats CacheStats
}

func newTravCache() *travCache {
	return &travCache{
		trees:    make(map[treeKey]*travTree),
		seenOnce: make(map[treeKey]struct{}),
	}
}

// sync revalidates the cache against the overlay, flushing the trees
// if connectivity changed. Called once per flood.
func (c *travCache) sync(ov *overlay.Overlay) {
	c.floodsStable++
	if c.synced && c.version == ov.Version() {
		return
	}
	c.version = ov.Version()
	c.synced = true
	c.floodsStable = 0
	c.flush()
}

func (c *travCache) flush() {
	if len(c.trees) > 0 || len(c.seenOnce) > 0 {
		c.stats.Flushes++
	}
	clear(c.trees)
	clear(c.seenOnce)
	c.cachedVisits = 0
}

// lookup returns the replayable tree for key, or nil with build=true
// when the caller should construct (and store) one now. Build policy:
// second use by default, first use once the topology has been stable
// for cacheBuildAfterFloods floods.
func (c *travCache) lookup(k treeKey) (tr *travTree, build bool) {
	if tr, ok := c.trees[k]; ok {
		if tr.skip {
			c.stats.Misses++
			return nil, false
		}
		return tr, false
	}
	c.stats.Misses++
	if c.floodsStable >= cacheBuildAfterFloods {
		return nil, true
	}
	if _, ok := c.seenOnce[k]; ok {
		return nil, true
	}
	c.seenOnce[k] = struct{}{}
	return nil, false
}

// store inserts a freshly built tree, flushing first if the size cap
// would be exceeded.
func (c *travCache) store(k treeKey, tr *travTree) {
	c.stats.Builds++
	sz := len(tr.visits) + len(tr.nodes)
	if c.cachedVisits+sz > cacheMaxVisits {
		c.flush()
	}
	c.trees[k] = tr
	c.cachedVisits += sz
}

// clone copies the recorded tree into exactly-sized storage for the
// cache to own; the engine's scratch recording tree is reused by the
// next flood.
func (tr *travTree) clone() *travTree {
	return &travTree{
		nodes:      append([]travNode(nil), tr.nodes...),
		visits:     append([]visit(nil), tr.visits...),
		edgeEvents: tr.edgeEvents,
		dupEvents:  tr.dupEvents,
	}
}

// replayFailed records a physical-mode precheck failure; after
// cacheSkipAfterFails in a row the tree stops attempting replay until
// the next version flush.
func (tr *travTree) replayFailed() {
	tr.failStreak++
	if tr.failStreak >= cacheSkipAfterFails {
		tr.skip = true
	}
}
