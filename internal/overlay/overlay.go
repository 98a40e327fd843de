// Package overlay maintains the dynamic state of the unstructured P2P
// overlay on top of a static logical topology: which peers are online
// (the paper "simulates the joining and leaving behavior of peers via
// turning on/off logical peers"), which logical connections have been
// cut by DD-POLICE, and the per-directed-edge per-minute query counters
// Q_{i->h}(t) that Definitions 2.1-2.3 are computed from.
package overlay

import (
	"fmt"
	"slices"

	"ddpolice/internal/topology"
)

// PeerID identifies a peer; it equals the topology.NodeID of the
// underlying static graph.
type PeerID = topology.NodeID

// EdgeID indexes a *directed* logical edge (u -> k-th neighbor of u).
type EdgeID int32

// Per-directed-edge flag bits. Both directions of a logical edge always
// carry the same flags.
const (
	// edgeCut: DD-POLICE (or a partition) severed the connection.
	edgeCut uint8 = 1 << iota
	// edgeLive: both ends online and the edge not cut — the one
	// predicate every traversal filters on, kept current by SetOnline,
	// Cut and Uncut so readers never recompute it.
	edgeLive
)

// Overlay is the mutable overlay state. It is not safe for concurrent
// mutation; each simulation replica owns one Overlay.
type Overlay struct {
	g      *topology.Graph
	online []bool
	// edgeBase and to form a flat static CSR of the logical graph:
	// edges edgeBase[v]..edgeBase[v+1]-1 leave v, in static neighbor
	// order, and to[e] is the head of edge e.
	edgeBase []EdgeID
	to       []PeerID
	reverse  []EdgeID // reverse[e] = id of the opposite direction
	flags    []uint8  // edgeCut|edgeLive per directed edge, symmetric
	curQ     []float64
	prevQ    []float64
	// onlineIDs lists the online peers in ascending PeerID order,
	// maintained incrementally by SetOnline so OnlineCount is O(1) and
	// AppendOnline is O(active) — the tick hot path iterates active
	// peers without scanning all N.
	onlineIDs []PeerID
	// version counts connectivity mutations (join/leave, cut/uncut —
	// including partition apply/heal, which go through Cut/Uncut).
	// Traversal caches and fair-share budgets key their validity on it;
	// no-op mutations (cutting an already-cut edge, re-onlining an
	// online peer) deliberately do not bump it.
	version uint64
}

// New creates an overlay over g with every peer online and no cuts.
func New(g *topology.Graph) *Overlay {
	n := g.NumNodes()
	o := &Overlay{g: g, online: make([]bool, n), edgeBase: make([]EdgeID, n+1),
		onlineIDs: make([]PeerID, n)}
	var total EdgeID
	for v := 0; v < n; v++ {
		o.online[v] = true
		o.onlineIDs[v] = PeerID(v)
		o.edgeBase[v] = total
		total += EdgeID(g.Degree(PeerID(v)))
	}
	o.edgeBase[n] = total
	o.to = make([]PeerID, 0, total)
	for v := 0; v < n; v++ {
		o.to = append(o.to, g.Neighbors(PeerID(v))...)
	}
	o.reverse = make([]EdgeID, total)
	o.flags = make([]uint8, total)
	o.curQ = make([]float64, total)
	o.prevQ = make([]float64, total)
	for v := 0; v < n; v++ {
		for e := o.edgeBase[v]; e < o.edgeBase[v+1]; e++ {
			re, ok := o.lookupEdge(o.to[e], PeerID(v))
			if !ok {
				panic("overlay: asymmetric adjacency")
			}
			o.reverse[e] = re
			o.flags[e] = edgeLive
		}
	}
	return o
}

// lookupEdge finds the directed edge u->w by scanning u's (sorted)
// neighbor list with binary search.
func (o *Overlay) lookupEdge(u, w PeerID) (EdgeID, bool) {
	// Hand-rolled: slices.BinarySearch is not inlined, and this sits
	// under the police path's LastMinute and Connected.
	lo, hi := o.edgeBase[u], o.edgeBase[u+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if o.to[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < o.edgeBase[u+1] && o.to[lo] == w
}

// Graph returns the static logical topology.
func (o *Overlay) Graph() *topology.Graph { return o.g }

// NumPeers returns the total number of logical peers.
func (o *Overlay) NumPeers() int { return o.g.NumNodes() }

// NumDirectedEdges returns the number of directed logical edges.
func (o *Overlay) NumDirectedEdges() int { return len(o.to) }

// Version returns the connectivity mutation counter. It increments on
// every state-changing SetOnline, Cut and Uncut, so any derived view of
// reachability (flood traversal caches, fair-share edge budgets, online
// peer lists) is valid exactly while Version is unchanged.
func (o *Overlay) Version() uint64 { return o.version }

// Online reports whether v is currently in the system.
func (o *Overlay) Online(v PeerID) bool { return o.online[v] }

// OnlineCount returns the number of online peers in O(1).
func (o *Overlay) OnlineCount() int { return len(o.onlineIDs) }

// AppendOnline appends the online peers in ascending PeerID order to
// buf and returns the extended slice — the same order a full
// O(NumPeers) scan of Online would produce, in O(online) time. buf may
// be nil. The returned contents are a copy; they stay valid across
// subsequent mutations.
func (o *Overlay) AppendOnline(buf []PeerID) []PeerID {
	return append(buf, o.onlineIDs...)
}

// SetOnline toggles peer v. Transitioning in either direction clears
// all cuts and traffic counters on v's edges: a leaving peer tears its
// connections down, and a (re)joining peer establishes fresh
// connections — which is also how a disconnected DDoS agent "joins the
// system again and launches another round of attacks" (§3.7.2).
func (o *Overlay) SetOnline(v PeerID, on bool) {
	if o.online[v] == on {
		return
	}
	o.online[v] = on
	o.version++
	pos, _ := slices.BinarySearch(o.onlineIDs, v)
	if on {
		o.onlineIDs = slices.Insert(o.onlineIDs, pos, v)
	} else {
		o.onlineIDs = slices.Delete(o.onlineIDs, pos, pos+1)
	}
	for e := o.edgeBase[v]; e < o.edgeBase[v+1]; e++ {
		re := o.reverse[e]
		f := uint8(0)
		if on && o.online[o.to[e]] {
			f = edgeLive
		}
		o.flags[e], o.flags[re] = f, f
		o.curQ[e], o.prevQ[e] = 0, 0
		o.curQ[re], o.prevQ[re] = 0, 0
	}
}

// EdgeID returns the directed edge id for u's k-th static neighbor.
func (o *Overlay) EdgeID(u PeerID, k int) EdgeID { return o.edgeBase[u] + EdgeID(k) }

// Reverse returns the opposite-direction edge id.
func (o *Overlay) Reverse(e EdgeID) EdgeID { return o.reverse[e] }

// Endpoints returns (from, to) for a directed edge id.
func (o *Overlay) Endpoints(e EdgeID) (from, to PeerID) {
	// Binary search edgeBase for the owner.
	lo, hi := 0, len(o.edgeBase)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if o.edgeBase[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return PeerID(lo), o.to[e]
}

// Adj returns v's static neighbors in order together with the id of
// the edge to the first of them: the edge to to[k] is base+k. Callers
// must not mutate to; they filter it with EdgeLive.
func (o *Overlay) Adj(v PeerID) (to []PeerID, base EdgeID) {
	base = o.edgeBase[v]
	return o.to[base:o.edgeBase[v+1]], base
}

// EdgeLive reports whether directed edge e is currently usable: both
// ends online and the edge not cut.
func (o *Overlay) EdgeLive(e EdgeID) bool { return o.flags[e]&edgeLive != 0 }

// FindEdge returns the directed edge id u->w, if {u,w} is a logical edge.
func (o *Overlay) FindEdge(u, w PeerID) (EdgeID, bool) { return o.lookupEdge(u, w) }

// Connected reports whether the logical edge {u,w} exists, both ends
// are online, and the edge has not been cut.
func (o *Overlay) Connected(u, w PeerID) bool {
	e, ok := o.lookupEdge(u, w)
	return ok && o.EdgeLive(e)
}

// ActiveNeighbors appends to buf the currently reachable neighbors of v
// (online, edge not cut) and returns the extended slice. buf may be nil.
func (o *Overlay) ActiveNeighbors(v PeerID, buf []PeerID) []PeerID {
	to, base := o.Adj(v)
	for k, w := range to {
		if o.EdgeLive(base + EdgeID(k)) {
			buf = append(buf, w)
		}
	}
	return buf
}

// ActiveDegree returns the number of active neighbors of v.
func (o *Overlay) ActiveDegree(v PeerID) int {
	d := 0
	for e := o.edgeBase[v]; e < o.edgeBase[v+1]; e++ {
		if o.EdgeLive(e) {
			d++
		}
	}
	return d
}

// Cut severs the logical connection {u,w} in both directions. It
// returns an error if the edge does not exist.
func (o *Overlay) Cut(u, w PeerID) error {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return fmt.Errorf("overlay: cut of non-edge (%d,%d)", u, w)
	}
	if !o.EdgeCut(e) {
		o.version++
	}
	o.flags[e] = edgeCut
	o.flags[o.reverse[e]] = edgeCut
	return nil
}

// Uncut restores a severed logical connection {u,w} in both directions
// — the healing half of a timed partition event. Uncutting an intact or
// non-existent edge is a no-op, so heals compose with churn: SetOnline
// may already have cleared the flags while the partition was up.
func (o *Overlay) Uncut(u, w PeerID) {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return
	}
	if !o.EdgeCut(e) {
		return
	}
	o.version++
	f := uint8(0)
	if o.online[u] && o.online[w] {
		f = edgeLive
	}
	o.flags[e] = f
	o.flags[o.reverse[e]] = f
}

// EdgeCut reports whether directed edge e has been severed. It is the
// O(1) form of IsCut for callers that already hold an edge id.
func (o *Overlay) EdgeCut(e EdgeID) bool { return o.flags[e]&edgeCut != 0 }

// IsCut reports whether the logical edge {u,w} has been severed.
func (o *Overlay) IsCut(u, w PeerID) bool {
	e, ok := o.lookupEdge(u, w)
	return ok && o.EdgeCut(e)
}

// CutCount returns the number of undirected edges currently cut.
func (o *Overlay) CutCount() int {
	c := 0
	for _, f := range o.flags {
		if f&edgeCut != 0 {
			c++
		}
	}
	return c / 2
}

// AddTraffic records amount queries flowing over directed edge e in the
// current minute window. Fractional amounts arise from attacker batch
// floods.
func (o *Overlay) AddTraffic(e EdgeID, amount float64) { o.curQ[e] += amount }

// AddTrafficBetween records traffic on the directed edge u->w; it is a
// convenience for tests and the message-level simulator.
func (o *Overlay) AddTrafficBetween(u, w PeerID, amount float64) error {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return fmt.Errorf("overlay: traffic on non-edge (%d,%d)", u, w)
	}
	o.curQ[e] += amount
	return nil
}

// RollMinute closes the current per-minute counter window: current
// counts become the "past one minute" values that Neighbor_Traffic
// messages report, and the current window resets.
func (o *Overlay) RollMinute() {
	o.prevQ, o.curQ = o.curQ, o.prevQ
	for i := range o.curQ {
		o.curQ[i] = 0
	}
}

// LastMinute returns Q_{u->w} for the most recently closed minute.
func (o *Overlay) LastMinute(u, w PeerID) float64 {
	e, ok := o.lookupEdge(u, w)
	if !ok {
		return 0
	}
	return o.prevQ[e]
}

// LastMinuteEdge returns the closed-minute count for a directed edge id.
func (o *Overlay) LastMinuteEdge(e EdgeID) float64 { return o.prevQ[e] }

// CurrentMinuteEdge returns the accumulating count for a directed edge.
func (o *Overlay) CurrentMinuteEdge(e EdgeID) float64 { return o.curQ[e] }
