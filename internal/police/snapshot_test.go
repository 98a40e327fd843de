package police

import (
	"slices"
	"testing"

	"ddpolice/internal/overlay"
	"ddpolice/internal/rng"
	"ddpolice/internal/topology"
)

// baOverlay builds a small Barabasi-Albert overlay.
func baOverlay(t *testing.T, n, m int, seed uint64) *overlay.Overlay {
	t.Helper()
	g, err := topology.BarabasiAlbert(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	return overlay.New(g)
}

// checkSnapRefs asserts the snapshot store's bookkeeping: every
// snapshot's refcount equals the number of edges and owners holding
// it, every unreferenced snapshot is on the free list exactly once, no
// free-listed id is still held, and the store never grew past the
// number of holders (released snapshots are reused before it grows).
func checkSnapRefs(t *testing.T, p *Police) {
	t.Helper()
	if holders := len(p.listSnap) + len(p.ownSnap); len(p.snaps) > holders {
		t.Fatalf("%d snapshots for at most %d holders: released ones are not reused",
			len(p.snaps), holders)
	}
	want := make([]int32, len(p.snaps))
	for _, id := range p.listSnap {
		if id != snapNone {
			want[id]++
		}
	}
	for _, id := range p.ownSnap {
		if id != snapNone {
			want[id]++
		}
	}
	free := make([]bool, len(p.snaps))
	for _, id := range p.snapFree {
		if free[id] {
			t.Fatalf("snapshot %d is on the free list twice", id)
		}
		free[id] = true
	}
	for id, s := range p.snaps {
		if s.refs != want[id] {
			t.Fatalf("snapshot %d: refs = %d, held by %d edges/owners", id, s.refs, want[id])
		}
		if free[id] != (want[id] == 0) {
			t.Fatalf("snapshot %d: held %d times, free-listed = %v", id, want[id], free[id])
		}
	}
}

// TestReceivedListSurvivesLaterChanges pins that a received list is a
// snapshot: the owner's later cuts and departing neighbors, and the
// owner's next exchange to other receivers, leave it untouched until
// the receiver itself gets a newer push.
func TestReceivedListSurvivesLaterChanges(t *testing.T) {
	ov := starOverlay(t, 4) // center 0, leaves 1..4
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exchangeAll(p, ov, 0)
	view := func(observer PeerID, now float64) []PeerID {
		return slices.Clone(p.membersOf(observer, 0, now))
	}
	want1, want2 := view(1, 1), view(2, 1)
	if !slices.Equal(want1, []PeerID{2, 3, 4}) || !slices.Equal(want2, []PeerID{1, 3, 4}) {
		t.Fatalf("initial views %v, %v", want1, want2)
	}

	if err := ov.Cut(0, 2); err != nil {
		t.Fatal(err)
	}
	ov.SetOnline(3, false)
	if got := view(1, 2); !slices.Equal(got, want1) {
		t.Fatalf("peer 1's view changed before any exchange: %v, want %v", got, want1)
	}
	// 0's next exchange reaches 1 and 4 but not the cut-off 2, whose
	// received list must stay as it was.
	p.exchangeFrom(0, 10)
	if got := view(1, 11); !slices.Equal(got, []PeerID{4}) {
		t.Fatalf("peer 1's view after the exchange = %v, want [4]", got)
	}
	if got := view(2, 11); !slices.Equal(got, want2) {
		t.Fatalf("cut-off peer 2's view changed: %v, want %v", got, want2)
	}
	ov.SetOnline(3, true)
	p.exchangeFrom(0, 20)
	if got := view(1, 21); !slices.Equal(got, []PeerID{3, 4}) {
		t.Fatalf("peer 1's view after 3 rejoined = %v, want [3 4]", got)
	}
	if got := view(2, 21); !slices.Equal(got, want2) {
		t.Fatalf("cut-off peer 2's view changed: %v, want %v", got, want2)
	}
	checkSnapRefs(t, p)
}

// TestSnapshotRefcountsAfterChurn drives churn, lossy pushes and lying
// peers caught by list verification (private snapshots and cuts in the
// middle of an exchange), then audits the snapshot store.
func TestSnapshotRefcountsAfterChurn(t *testing.T) {
	for _, eventDriven := range []bool{false, true} {
		name := "periodic"
		if eventDriven {
			name = "event-driven"
		}
		t.Run(name, func(t *testing.T) {
			ov := baOverlay(t, 300, 3, 5)
			cfg := DefaultConfig()
			cfg.EventDriven = eventDriven
			cfg.VerifyLists = true
			p, err := New(ov, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, liar := range []PeerID{0, 17, 150} {
				p.SetListLiar(liar)
			}
			p.SetControlLoss(0.1, rng.New(9))
			for v := 0; v < ov.NumPeers(); v++ {
				p.NotifyJoin(PeerID(v), 0)
			}
			churn := overlay.NewChurn(ov, overlay.ChurnConfig{
				MeanLifetime: 120, StddevLifetime: 30, MeanOffline: 60,
			}, rng.New(3))
			flips := 0
			for sec := 1; sec <= 900; sec++ {
				now := float64(sec)
				churn.Tick(1)
				for _, id := range churn.Flips() {
					flips++
					if ov.Online(id) {
						p.NotifyJoin(id, now)
					} else {
						p.NotifyLeave(id, now)
					}
				}
				p.Tick(now)
			}
			if flips == 0 || len(p.Detections()) == 0 || p.ControlLost() == 0 {
				t.Fatalf("vacuous run: %d flips, %d verify cuts, %d lost pushes",
					flips, len(p.Detections()), p.ControlLost())
			}
			checkSnapRefs(t, p)
		})
	}
}

// TestTickSteadyStateAllocsZero pins the pool's purpose: on a static
// overlay, once every peer has exchanged, periodic exchanges reuse
// each owner's snapshot and allocate nothing.
func TestTickSteadyStateAllocsZero(t *testing.T) {
	ov := baOverlay(t, 500, 3, 2)
	p, err := New(ov, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ov.NumPeers(); v++ {
		p.NotifyJoin(PeerID(v), 0)
	}
	now := 0.0
	tick := func() {
		now++
		p.Tick(now)
	}
	for now < 300 { // two full exchange periods
		tick()
	}
	before := p.Overhead().NeighborListMsgs
	if allocs := testing.AllocsPerRun(120, tick); allocs != 0 {
		t.Fatalf("Tick allocates %.2f times per call on a static overlay, want 0", allocs)
	}
	if p.Overhead().NeighborListMsgs == before {
		t.Fatal("no exchanges fired during the measured ticks")
	}
}
