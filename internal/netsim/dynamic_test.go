package netsim

import (
	"errors"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/route"
)

func TestAddEdgeShortensRoutes(t *testing.T) {
	g := gen.Cycle(12)
	alg := route.Algorithm3()
	k := alg.MinK(12)
	nw := startNetwork(t, g, k, alg)

	before, err := nw.Send(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(before)-1 != 6 {
		t.Fatalf("antipodal route on C12 should be 6 hops, got %d", len(before)-1)
	}

	// Add a chord 0-6 and rediscover: the route collapses to one hop.
	if err := nw.AddEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Send(0, 6); !errors.Is(err, ErrNotDiscovered) {
		t.Fatalf("send after topology change must demand rediscovery, got %v", err)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	after, err := nw.Send(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(after)-1 != 1 {
		t.Fatalf("route after adding the chord should be 1 hop, got %v", after)
	}
}

func TestAddEdgeIdempotentAndValidation(t *testing.T) {
	g := gen.Path(6)
	nw := startNetwork(t, g, 3, route.Algorithm3())
	if err := nw.AddEdge(0, 1); err != nil {
		t.Errorf("re-adding an existing edge must be a no-op: %v", err)
	}
	if err := nw.AddEdge(2, 2); err == nil {
		t.Error("self-loop must error")
	}
	if err := nw.AddEdge(0, 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown endpoint: %v", err)
	}
	if err := nw.RemoveEdge(0, 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown endpoint: %v", err)
	}
	// Adding an existing edge must not invalidate discovery.
	if _, err := nw.Send(0, 5); err != nil {
		t.Errorf("discovery should still be valid: %v", err)
	}
}

func TestRemoveEdgeReroutes(t *testing.T) {
	// A cycle with a chord: removing the chord forces the long way.
	g := gen.Cycle(10).Union(graph.FromEdges([]graph.Edge{graph.NewEdge(0, 5)}))
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(10), alg)
	r, err := nw.Send(0, 5)
	if err != nil || len(r)-1 != 1 {
		t.Fatalf("chord route: %v err=%v", r, err)
	}
	if err := nw.RemoveEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	r, err = nw.Send(0, 5)
	if err != nil || len(r)-1 != 5 {
		t.Fatalf("post-removal route should be 5 hops: %v err=%v", r, err)
	}
}

func TestRemoveEdgeNonexistentIsNoop(t *testing.T) {
	g := gen.Path(5)
	nw := startNetwork(t, g, 2, route.Algorithm3())
	if err := nw.RemoveEdge(0, 4); err != nil {
		t.Errorf("removing an absent edge must be a no-op: %v", err)
	}
	if _, err := nw.Send(0, 4); err != nil {
		t.Errorf("discovery should remain valid: %v", err)
	}
}

func TestRediscoveredViewsMatchOracle(t *testing.T) {
	g := gen.Cycle(10)
	alg := route.Algorithm2()
	k := alg.MinK(10)
	nw := startNetwork(t, g, k, alg)
	if err := nw.AddEdge(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	want := g.Union(graph.FromEdges([]graph.Edge{graph.NewEdge(2, 7)}))
	for _, v := range want.Vertices() {
		oracle := nbhd.Extract(want, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(oracle) {
			t.Fatalf("rediscovered view at %d differs from oracle:\n got %v\nwant %v", v, got, oracle)
		}
	}
}

// TestAddEdgeGrowsDegreeWithoutRebuild grows a node's degree sevenfold
// in one network: links are added in place, and rediscovery yields
// exact views of the grown graph.
func TestAddEdgeGrowsDegreeWithoutRebuild(t *testing.T) {
	g := gen.Path(8)
	const k = 3
	nw := startNetwork(t, g, k, route.Algorithm3())
	grown := g
	for v := graph.Vertex(2); v < 8; v++ {
		if err := nw.AddEdge(0, v); err != nil {
			t.Fatalf("add {0,%d}: %v", v, err)
		}
		grown = grown.WithEdge(0, v)
	}
	if d := grown.Deg(0); d != 7 {
		t.Fatalf("node 0 has degree %d, want 7", d)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	for _, v := range grown.Vertices() {
		if got, want := nw.View(v), nbhd.Extract(grown, v, k).G; got == nil || !got.Equal(want) {
			t.Fatalf("view at %d after growth:\n got %v\nwant %v", v, got, want)
		}
	}
}

func TestDisconnectionSurfacesAsError(t *testing.T) {
	g := gen.Path(6)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(6), alg)
	if err := nw.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Send(0, 5); err == nil {
		t.Error("routing across a cut must fail")
	}
	// Same-side routing still works.
	if _, err := nw.Send(0, 2); err != nil {
		t.Errorf("same-side route failed: %v", err)
	}
}

func TestNodeCrashScenario(t *testing.T) {
	// A "crash" in the static model: all of a node's links are removed,
	// rediscovery runs, and traffic routes around the hole — or fails
	// cleanly toward the dead node.
	g := gen.Grid(3, 4) // crash node 5 (an interior vertex)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(g.N()), alg)
	before, err := nw.Send(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(before)-1 != 2 {
		t.Fatalf("route 4->6 should be 2 hops through 5, got %v", before)
	}
	for _, nb := range g.Adj(5) {
		if err := nw.RemoveEdge(5, nb); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	after, err := nw.Send(4, 6)
	if err != nil {
		t.Fatalf("routing around the crash: %v", err)
	}
	for _, v := range after {
		if v == 5 {
			t.Fatalf("route still visits the crashed node: %v", after)
		}
	}
	if len(after)-1 <= 2 {
		t.Fatalf("detour should be longer than the direct route: %v", after)
	}
	// Traffic TO the dead node fails cleanly.
	if _, err := nw.Send(0, 5); err == nil {
		t.Error("routing to a crashed node must fail")
	}
}
