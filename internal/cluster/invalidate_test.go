package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
)

// flapLSAs builds the two announcements a link flap on {u, v} floods:
// both endpoints re-originate with the edge dropped from (up = false)
// or restored to (up = true) their adjacency in g, one sequence past
// what m holds. The union keeps an edge as long as either endpoint
// still announces it, so a flap takes both.
func flapLSAs(t *testing.T, m *Member, g *graph.Graph, u, v graph.Vertex, up bool) *LSABatch {
	t.Helper()
	owner, _ := m.asn.Owner(u)
	batch := &LSABatch{From: PeerInfo{Index: owner}}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, pair := range [2][2]graph.Vertex{{u, v}, {v, u}} {
		origin, other := pair[0], pair[1]
		rec := m.store[origin]
		if rec == nil || rec.tomb {
			t.Fatalf("no live record for origin %d", origin)
		}
		adj := g.Adj(origin)
		if !up {
			adj = slices.DeleteFunc(adj, func(w graph.Vertex) bool { return w == other })
		}
		batch.LSAs = append(batch.LSAs, WireLSA{Origin: origin, Seq: rec.seq + 1, Adj: adj})
	}
	return batch
}

// warmViews builds every owned view of m and returns them by vertex.
func warmViews(m *Member) map[graph.Vertex]*prep.View {
	out := make(map[graph.Vertex]*prep.View)
	for _, v := range m.asn.Owned(m.Index()) {
		out[v] = m.View(v)
	}
	return out
}

// checkViews requires every owned view of m to equal, in every field
// routing reads, the view prep builds from g — the topology m's
// link-state store should describe.
func checkViews(t *testing.T, m *Member, g *graph.Graph) {
	t.Helper()
	for _, v := range m.asn.Owned(m.Index()) {
		want := prep.PreprocessStore(g, v, m.cfg.K, m.cfg.Alg.Policy)
		if err := prep.DiffViews(m.View(v), want); err != nil {
			t.Fatalf("member %d: view of %d differs from G_%d(%d) of the expected topology: %v",
				m.Index(), v, m.cfg.K, v, err)
		}
	}
}

// ball returns every vertex of g within distance k of one of the given
// vertices.
func ball(g *graph.Graph, k int, from ...graph.Vertex) map[graph.Vertex]bool {
	out := make(map[graph.Vertex]bool)
	for _, x := range from {
		for w := range g.BFSBounded(x, k) {
			out[w] = true
		}
	}
	return out
}

// checkKLocal compares m's owned views against the views cached before
// a store change: rows in dirty must have been rebuilt, every other row
// must be the same pointer. It fails when the test graph leaves either
// kind of row empty.
func checkKLocal(t *testing.T, m *Member, before map[graph.Vertex]*prep.View, dirty map[graph.Vertex]bool) {
	t.Helper()
	sawDirty, sawClean := false, false
	for v, was := range before {
		if dirty[v] {
			sawDirty = true
			if m.View(v) == was {
				t.Fatalf("member %d kept the stale view of %d inside the k-ball", m.Index(), v)
			}
		} else {
			sawClean = true
			if m.View(v) != was {
				t.Fatalf("member %d rebuilt the view of %d outside the k-ball", m.Index(), v)
			}
		}
	}
	if !sawDirty || !sawClean {
		t.Fatalf("test graph degenerate: dirty and clean owned rows must both exist (dirty=%v clean=%v)", sawDirty, sawClean)
	}
}

// TestViewInvalidationIsKLocal is the cluster face of the locality
// theorem: an LSA change drops a member's cached views only for owned
// vertices within distance k of the touched endpoints. A flap at the
// far end of a path derives a new epoch yet leaves every view of the
// first shard pointer-identical; a flap just past the shard boundary
// rebuilds exactly the owned rows inside the k-ball, and the rebuilt
// rows equal the views prep builds from the post-flap graph.
func TestViewInvalidationIsKLocal(t *testing.T) {
	g := gen.Path(30)
	k := 3
	members, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: k, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	m := members[0]
	before := warmViews(m)

	// A flap 19 hops from the nearest owned vertex: outside every owned
	// k-ball, so despite the new union nothing may rebuild.
	ep := m.cur.Load()
	m.handleLSAs(flapLSAs(t, m, g, 28, 29, false))
	if m.cur.Load() == ep {
		t.Fatal("far flap did not derive a new epoch")
	}
	if m.cur.Load().union.HasEdge(28, 29) {
		t.Fatal("far flap left {28, 29} in the union")
	}
	for v, was := range before {
		if m.View(v) != was {
			t.Fatalf("far flap rebuilt the view of %d (distance >> k)", v)
		}
	}

	// A flap on {10, 11}, just across the shard boundary. Owned rows in
	// B_k(10) ∪ B_k(11) rebuild against the new topology; the rest keep
	// their exact pointers.
	m.handleLSAs(flapLSAs(t, m, g, 10, 11, false))
	checkKLocal(t, m, before, ball(g, k, 10, 11))
	checkViews(t, m, g.WithoutEdge(28, 29).WithoutEdge(10, 11))
}

// TestSelfDefenseRebuildsNothing hears a member's own obituary at its
// current incarnation: it bumps the incarnation and re-announces every
// owned vertex, but with identical adjacency, so neither it nor the
// peers that receive the re-announcements rebuild a union or a view.
func TestSelfDefenseRebuildsNothing(t *testing.T) {
	g := gen.Cycle(18)
	members, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: 4, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	before := make([]map[graph.Vertex]*prep.View, len(members))
	epochs := make([]*epoch, len(members))
	for i, m := range members {
		before[i] = warmViews(m)
		epochs[i] = m.cur.Load()
	}

	m := members[0]
	st := m.Stats()
	m.mu.Lock()
	m.mergeGossipLocked(PeerInfo{Index: 0, Addr: m.Addr(), Inc: m.inc, Dead: true}, time.Now())
	m.mu.Unlock()
	after := m.Stats()
	if after.Incarnation != st.Incarnation+1 {
		t.Fatalf("incarnation %d after self-defense, want %d", after.Incarnation, st.Incarnation+1)
	}
	if after.StoreGen != st.StoreGen+int64(len(before[0])) {
		t.Fatalf("store generation %d after re-announcing %d vertices, want %d",
			after.StoreGen, len(before[0]), st.StoreGen+int64(len(before[0])))
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.cur.Load() != epochs[i] {
			t.Fatalf("member %d published a new epoch for identical adjacency", i)
		}
		for v, was := range before[i] {
			if m.View(v) != was {
				t.Fatalf("member %d rebuilt the view of %d after self-defense", i, v)
			}
		}
	}
	if got := m.Metrics().Counter("tombstones_refuted"); got != 1 {
		t.Fatalf("tombstones_refuted = %d, want 1", got)
	}
}

// TestConcurrentRouteWhileDeriving routes from two goroutines while the
// test goroutine feeds every member LSA batches that flap a chord of the
// cycle, so each batch derives a new epoch under live walks. Run it
// under -race -count=10: every reply must be a valid walk in g or a
// typed failure, and once the flaps stop every view must match g.
func TestConcurrentRouteWhileDeriving(t *testing.T) {
	g := gen.Cycle(24).WithEdge(3, 9) // the chord {3, 9} is the flapped link
	k := 8                            // alg2's threshold: T(24) = 8
	members, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: k, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		warmViews(m)
	}

	errs := make(chan error, 2)
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				s, d := graph.Vertex(rng.Intn(g.N())), graph.Vertex(rng.Intn(g.N()))
				rep, err := members[rng.Intn(len(members))].Route(context.Background(), s, d, false)
				if err == nil {
					err = validReply(g, rep)
				}
				if err != nil {
					errs <- err
					return
				}
				if rep.Delivered {
					delivered.Add(1)
				}
			}
		}(int64(c))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(errs)
		close(done)
	}()
	// Flap until the routers finish, then leave the chord up.
	flaps := 0
	for running := true; running || flaps%2 == 1; flaps++ {
		select {
		case <-done:
			running = false
		default:
		}
		for _, m := range members {
			m.handleLSAs(flapLSAs(t, m, g, 3, 9, flaps%2 == 1))
		}
	}
	<-done
	for err := range errs {
		t.Fatal(err)
	}
	if delivered.Load() == 0 || flaps < 2 {
		t.Fatalf("%d routes delivered across %d flaps: the race window went unexercised", delivered.Load(), flaps)
	}
	for _, m := range members {
		checkViews(t, m, g)
	}
}

// validReply checks one reply against g: a delivered walk runs from s to
// t over edges of g, and a failure carries its typed kind.
func validReply(g *graph.Graph, rep *RouteReply) error {
	if !rep.Delivered {
		if rep.ErrKind == "" {
			return fmt.Errorf("route %d->%d failed untyped: %s", rep.S, rep.T, rep.Err)
		}
		return nil
	}
	if rep.Route[0] != rep.S || rep.Route[len(rep.Route)-1] != rep.T {
		return fmt.Errorf("walk %v does not run %d->%d", rep.Route, rep.S, rep.T)
	}
	for i := 1; i < len(rep.Route); i++ {
		if !g.HasEdge(rep.Route[i-1], rep.Route[i]) {
			return fmt.Errorf("walk %v leaves g at hop %d", rep.Route, i)
		}
	}
	return nil
}
