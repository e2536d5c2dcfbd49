package cluster

import (
	"context"
	"fmt"
	"testing"

	"klocal/internal/engine"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

func alg2(t *testing.T) route.Algorithm {
	t.Helper()
	return route.Algorithm2()
}

func TestAssignmentRanges(t *testing.T) {
	g := gen.Cycle(10)
	offset := make([]graph.Vertex, 10)
	sparse := make([]graph.Vertex, 10)
	for i := range offset {
		offset[i] = graph.Vertex(100 + i)
		sparse[i] = graph.Vertex(i*i + i)
	}
	// Contiguous label spaces resolve a label by its offset, any other
	// by binary search; both must split the same way.
	for _, labels := range [][]graph.Vertex{g.Vertices(), offset, sparse} {
		asn, err := NewAssignment(labels, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[graph.Vertex]int)
		total := 0
		for i := 0; i < asn.Shards(); i++ {
			for _, v := range asn.Owned(i) {
				if prev, dup := seen[v]; dup {
					t.Fatalf("vertex %d owned by shards %d and %d", v, prev, i)
				}
				seen[v] = i
				owner, ok := asn.Owner(v)
				if !ok || owner != i {
					t.Fatalf("labels %v: Owner(%d) = (%d, %v), want (%d, true)", labels, v, owner, ok, i)
				}
				total++
			}
		}
		if total != len(labels) {
			t.Fatalf("shards cover %d vertices, want %d", total, len(labels))
		}
		for _, v := range []graph.Vertex{-1, 2, 99, 110, 1 << 40} {
			if _, in := seen[v]; !in {
				if _, ok := asn.Owner(v); ok {
					t.Fatalf("labels %v: Owner accepted %d, outside the space", labels, v)
				}
			}
		}
	}
	if _, err := NewAssignment(nil, 1); err == nil {
		t.Fatal("NewAssignment accepted an empty vertex space")
	}
	if _, err := NewAssignment(g.Vertices(), 11); err == nil {
		t.Fatal("NewAssignment accepted more shards than vertices")
	}
	// A repeated label would land in two shards' ranges; [0 1 1 3] also
	// spans as many labels as a contiguous space of four would.
	for _, dup := range [][]graph.Vertex{{0, 1, 1, 2}, {0, 1, 1, 3}, {5, 5}} {
		if _, err := NewAssignment(dup, 2); err == nil {
			t.Fatalf("NewAssignment accepted duplicate labels %v", dup)
		}
	}
}

// TestDiscoveredViewsMatchExtract is the distributed discovery
// correctness statement: after Converge, every member's preprocessed
// G_k(u) for each owned vertex equals the view prep builds from the
// global graph — the same equivalence netsim's discovery test pins, now
// across the cluster's HTTP-shaped protocol.
func TestDiscoveredViewsMatchExtract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		shards int
		k      int
	}{
		{"cycle", gen.Cycle(18), 3, 7},
		{"lollipop", gen.Lollipop(12, 4), 4, 8},
		{"grid", gen.Grid(4, 4), 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members, _, err := NewLocalCluster(tc.g, LocalClusterConfig{
				Shards: tc.shards, K: tc.k, Alg: alg2(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := Converge(members, 0); err != nil {
				t.Fatal(err)
			}
			for _, m := range members {
				checkViews(t, m, tc.g)
			}
		})
	}
}

// TestClusterRoutesMatchEngine is the in-package form of the
// klocalcheck differential: on a fault-free converged cluster, the
// distributed walk (every decision on a locally discovered view,
// crossing real shard handoffs) must be hop-identical to the
// global-graph engine's walk.
func TestClusterRoutesMatchEngine(t *testing.T) {
	k := 5 // alg2 threshold T(15) = 5
	alg := alg2(t)
	// The 15-cycle under its own labels and under sparse ones, which
	// the assignment resolves by binary search instead of by offset.
	sparse := func(v graph.Vertex) graph.Vertex { return 3*v + 7 }
	var edges []graph.Edge
	for _, e := range gen.Cycle(15).Edges() {
		edges = append(edges, graph.Edge{U: sparse(e.U), V: sparse(e.V)})
	}
	for _, tc := range []struct {
		g     *graph.Graph
		label func(graph.Vertex) graph.Vertex
	}{
		{gen.Cycle(15), func(v graph.Vertex) graph.Vertex { return v }},
		{graph.FromEdges(edges), sparse},
	} {
		g := tc.g
		members, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: k, Alg: alg})
		if err != nil {
			t.Fatal(err)
		}
		if err := Converge(members, 0); err != nil {
			t.Fatal(err)
		}
		snap, err := engine.NewSnapshotStore(g, k, alg, engine.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]graph.Vertex{{0, 7}, {3, 12}, {14, 1}, {5, 5}} {
			s, tt := tc.label(pair[0]), tc.label(pair[1])
			want := snap.Route(s, tt, 0)
			if want.Outcome != sim.Delivered {
				t.Fatalf("engine route %d->%d: %s", s, tt, want.Outcome)
			}
			for entry := range members {
				rep, err := members[entry].Route(context.Background(), s, tt, true)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Delivered {
					t.Fatalf("cluster route %d->%d via member %d: %s (%s)", s, tt, entry, rep.Err, rep.ErrKind)
				}
				if fmt.Sprint(rep.Route) != fmt.Sprint(want.Route) {
					t.Fatalf("cluster route %d->%d via member %d = %v, engine walk %v",
						s, tt, entry, rep.Route, want.Route)
				}
				if len(rep.Steps) != len(rep.Route) {
					t.Fatalf("trace has %d steps for a %d-vertex walk", len(rep.Steps), len(rep.Route))
				}
			}
		}
	}
}

// TestRetransmissionUnderLoss drops every LSA exchange for the first
// rounds and checks the bounded-backoff retransmission still converges
// — and that the retransmit counter shows it worked for its living.
func TestRetransmissionUnderLoss(t *testing.T) {
	g := gen.Cycle(12)
	members, lt, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: 4, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	lt.Before = func(op, addr string) error {
		if op == "lsa" && drops < 20 {
			drops++
			return fmt.Errorf("injected loss")
		}
		return nil
	}
	if err := Converge(members, 64); err != nil {
		t.Fatal(err)
	}
	if drops == 0 {
		t.Fatal("loss injection never fired")
	}
	retrans := int64(0)
	for _, m := range members {
		retrans += m.Metrics().Counter("lsa_retransmits")
	}
	if retrans == 0 {
		t.Fatal("no retransmissions counted despite injected loss")
	}
}

// TestTombstoneAndRefutation drives the death/rebirth protocol by hand:
// silence a member until its peers tombstone the shard, then let it
// speak again and check the tombstones are refuted and views recover.
// The cycle is long against k, so each survivor owns rows near the
// withdrawn shard and rows far from it: with every owned view warm, the
// tombstones must rebuild exactly the near rows, against the topology
// minus shard 2, and the rejoin must bring every view back to g.
func TestTombstoneAndRefutation(t *testing.T) {
	g := gen.Cycle(36)
	k := 3
	members, lt, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: k, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	before := make([]map[graph.Vertex]*prep.View, 2)
	for i, m := range members[:2] {
		before[i] = warmViews(m)
	}

	// Silence member 2 entirely: peers' transfers to it exhaust their
	// attempt budget and condemn the shard.
	deadAddr := members[2].Addr()
	lt.Before = func(op, addr string) error {
		if addr == deadAddr {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	// New link-state (a self re-announcement) gives the survivors
	// something to reliably deliver to the silent peer.
	members[0].mu.Lock()
	members[0].reOriginateLocked(members[0].asn.Owned(0)[0])
	members[0].commitLocked()
	members[0].mu.Unlock()
	_ = Converge(members[:2], 64) // cannot fully settle; drives the retries
	withdrawn := members[2].asn.Owned(2)
	for _, m := range members[:2] {
		st := m.Stats()
		if st.PeersDead != 1 {
			t.Fatalf("member %d: %d dead peers after silencing shard 2, want 1", m.Index(), st.PeersDead)
		}
		if st.Tombstones != len(withdrawn) {
			t.Fatalf("member %d: %d tombstones, want %d", m.Index(), st.Tombstones, len(withdrawn))
		}
	}
	issued := members[0].Metrics().Counter("tombstones_issued") +
		members[1].Metrics().Counter("tombstones_issued")
	if issued == 0 {
		t.Fatal("no tombstones counted as issued")
	}
	survivors := g
	for _, v := range withdrawn {
		survivors = survivors.DropVertex(v)
	}
	for i, m := range members[:2] {
		checkKLocal(t, m, before[i], ball(g, k, withdrawn...))
		checkViews(t, m, survivors)
	}

	// Member 2 speaks again: direct contact resurrects it, the survivors
	// re-offer their stores (its own obituaries included), and the
	// refutation re-announcements clear every tombstone.
	lt.Before = nil
	if err := Converge(members, 64); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		st := m.Stats()
		if st.Tombstones != 0 {
			t.Fatalf("member %d: %d tombstones survive the rejoin", m.Index(), st.Tombstones)
		}
		if st.PeersDead != 0 {
			t.Fatalf("member %d still counts %d dead peers", m.Index(), st.PeersDead)
		}
		if !st.Ready {
			t.Fatalf("member %d not ready after rejoin", m.Index())
		}
		checkViews(t, m, g)
	}
	refuted := int64(0)
	for _, m := range members {
		refuted += m.Metrics().Counter("tombstones_refuted")
	}
	if refuted == 0 {
		t.Fatal("rejoin cleared tombstones without counting a refutation")
	}
}
