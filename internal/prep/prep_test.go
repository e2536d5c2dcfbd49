package prep

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// decode rebuilds the label-space graph a compact encoding describes.
func decode(cv *nbhd.CompactView) *graph.Graph {
	b := graph.NewBuilder()
	for i, v := range cv.Verts {
		b.AddVertex(v)
		for _, j := range cv.Row(int32(i)) {
			b.AddEdge(v, cv.Verts[j])
		}
	}
	return b.Build()
}

// distOf returns the encoded distance to w, or -1 when w is outside cv.
func distOf(cv *nbhd.CompactView, w graph.Vertex) int {
	li, ok := cv.Index(w)
	if !ok {
		return -1
	}
	return int(cv.Dist[li])
}

func TestDormantOnSmallCycle(t *testing.T) {
	// A 4-cycle with k=2: the whole cycle is local everywhere; exactly the
	// minimum-rank edge {0,1} becomes dormant.
	g := gen.Cycle(4)
	v := PreprocessStore(g, 0, 2, PolicyMinRank)
	h := v.RoutingHalf()
	if len(h.Dormant) != 1 || h.Dormant[0] != graph.NewEdge(0, 1) {
		t.Fatalf("dormant = %v, want [{0,1}]", h.Dormant)
	}
	if !v.IsDormant(graph.NewEdge(1, 0)) {
		t.Error("IsDormant must normalize edge orientation")
	}
	routing := decode(h.Routing)
	if routing.HasEdge(0, 1) {
		t.Error("dormant edge must leave the routing subgraph")
	}
	if !routing.HasEdge(0, 3) || !routing.HasEdge(2, 3) {
		t.Errorf("surviving edges missing: %v", routing)
	}
	// Vertex 1 sits at routing distance 3 > k and drops out of G'_k(u).
	if routing.HasVertex(1) {
		t.Errorf("vertex 1 should be beyond routing depth: %v", routing)
	}
}

func TestNoDormantOnLongCycle(t *testing.T) {
	// A cycle longer than 2k has no local cycles: nothing is dormant.
	g := gen.Cycle(9)
	v := PreprocessStore(g, 0, 4, PolicyMinRank)
	if len(v.RoutingHalf().Dormant) != 0 {
		t.Fatalf("dormant = %v, want none", v.RoutingHalf().Dormant)
	}
	if v.ActiveDegree() != 2 {
		t.Errorf("active degree = %d, want 2", v.ActiveDegree())
	}
}

func TestRoutingViewDepthRestriction(t *testing.T) {
	// Figure 9's effect: after removing a dormant edge, vertices whose
	// routing distance exceeds k drop out of G'_k(u) even though they were
	// in G_k(u). Take a triangle {0,1,2} with a long tail on 1: the edge
	// {0,1} is dormant (minimum rank on the triangle), so 1 is reachable
	// only via 2 and the tail shifts one hop further.
	g := graph.NewBuilder().AddCycle(0, 1, 2).AddPath(1, 3, 4, 5, 6).Build()
	k := 3
	v := PreprocessStore(g, 0, k, PolicyMinRank)
	if !v.IsDormant(graph.NewEdge(0, 1)) {
		t.Fatalf("triangle's minimum-rank edge should be dormant; got %v", v.RoutingHalf().Dormant)
	}
	// Raw view reaches vertex 4 (0-1-3-4, depth 3); in the routing view 1
	// is only reachable as 0-2-1, so the tail shifts: 3 stays (depth 3
	// via 0-2-1-3) but 4 moves to depth 4 and drops out.
	if !v.C.Raw.Contains(4) {
		t.Error("raw view should contain vertex 4")
	}
	if v.RoutingHalf().Routing.Contains(4) {
		t.Error("routing view must drop vertices beyond routing depth k")
	}
	if !v.RoutingHalf().Routing.Contains(3) {
		t.Error("routing view should still reach vertex 3 via 2-1")
	}
	if d := distOf(v.RoutingHalf().Routing, 1); d != 2 {
		t.Errorf("routing distance to 1 = %d, want 2", d)
	}
}

func TestLemma2AdjacentRoutingEdgesConsistent(t *testing.T) {
	// Every edge adjacent to u in G'_k(u) is globally consistent.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := 1 + rng.Intn(5)
		consistent := make(map[graph.Edge]bool)
		for _, e := range ConsistentEdges(g, k) {
			consistent[e] = true
		}
		for _, u := range g.Vertices() {
			v := PreprocessStore(g, u, k, PolicyMinRank)
			decode(v.RoutingHalf().Routing).EachAdj(u, func(w graph.Vertex) bool {
				if !consistent[graph.NewEdge(u, w)] {
					t.Fatalf("inconsistent routing edge {%d,%d} at u=%d k=%d in %v", u, w, u, k, g)
				}
				return true
			})
		}
	}
}

func TestLemma2Converse_AdjacentConsistentEdgesKept(t *testing.T) {
	// A consistent edge adjacent to u is never dormant at u, so it stays a
	// routing edge (it is at depth 1, inside the depth restriction).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := 1 + rng.Intn(5)
		consistent := ConsistentEdges(g, k)
		for _, e := range consistent {
			for _, u := range []graph.Vertex{e.U, e.V} {
				v := PreprocessStore(g, u, k, PolicyMinRank)
				if !decode(v.RoutingHalf().Routing).HasEdge(e.U, e.V) {
					t.Fatalf("consistent edge %v missing from G'_k(%d), k=%d, g=%v", e, u, k, g)
				}
			}
		}
	}
}

func TestLemma3ConsistentSubgraphConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		g := gen.RandomConnected(rng, n, 0.25)
		k := 1 + rng.Intn(6)
		sub := ConsistentSubgraph(g, k)
		if !sub.Connected() {
			t.Fatalf("consistent subgraph disconnected: k=%d g=%v", k, g)
		}
	}
}

func TestLemma5ConsistentGirth(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		g := gen.RandomConnected(rng, n, 0.25)
		k := 1 + rng.Intn(6)
		sub := ConsistentSubgraph(g, k)
		if girth := sub.Girth(); girth <= 2*k {
			t.Fatalf("consistent girth %d <= 2k=%d: g=%v", girth, 2*k, g)
		}
	}
}

func TestProposition1ActiveDegreeAtMost3(t *testing.T) {
	// k >= n/4 implies active degree <= 3.
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := (n + 3) / 4
		for _, u := range g.Vertices() {
			if d := PreprocessStore(g, u, k, PolicyMinRank).ActiveDegree(); d > 3 {
				t.Fatalf("active degree %d > 3 at u=%d, k=%d, n=%d: %v", d, u, k, n, g)
			}
		}
	}
}

func TestProposition2ActiveDegreeAtMost2(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := (n + 2) / 3
		for _, u := range g.Vertices() {
			if d := PreprocessStore(g, u, k, PolicyMinRank).ActiveDegree(); d > 2 {
				t.Fatalf("active degree %d > 2 at u=%d, k=%d, n=%d: %v", d, u, k, n, g)
			}
		}
	}
}

func TestProposition3ActiveDegreeAtMost1(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := (n + 1) / 2
		for _, u := range g.Vertices() {
			if d := PreprocessStore(g, u, k, PolicyMinRank).ActiveDegree(); d > 1 {
				t.Fatalf("active degree %d > 1 at u=%d, k=%d, n=%d: %v", d, u, k, n, g)
			}
		}
	}
}

func TestActiveRootsSortedAndMatchComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(20)
		g := gen.RandomConnected(rng, n, 0.2)
		k := 1 + rng.Intn(5)
		u := graph.Vertex(rng.Intn(n))
		h := PreprocessStore(g, u, k, PolicyMinRank).RoutingHalf()
		roots := h.ActiveRoots
		for i := 1; i < len(roots); i++ {
			if roots[i-1] >= roots[i] {
				t.Fatalf("active roots not sorted: %v", roots)
			}
		}
		rcv := h.Routing
		for _, r := range roots {
			li, ok := rcv.Index(r)
			if !ok {
				t.Fatalf("active root %d outside the routing view", r)
			}
			ci := h.CompIdxOf(li)
			if ci < 0 || !h.Comps[ci].Active {
				t.Fatalf("active root %d has no active component", r)
			}
			isRoot := false
			for _, x := range h.Comps[ci].Roots {
				isRoot = isRoot || x == li
			}
			if !isRoot {
				t.Fatalf("active root %d is not a root of its component", r)
			}
		}
		ref := PreprocessRef(g, u, k, PolicyMinRank)
		for _, r := range ref.ActiveRoots {
			c := ref.CompRootedAt(r)
			if c == nil || !c.Active {
				t.Fatalf("reference active root %d has no active component", r)
			}
			if ref.CompOf(r) != c {
				t.Fatalf("reference CompOf and CompRootedAt disagree for %d", r)
			}
		}
	}
}

func TestCompOfCenterIsNil(t *testing.T) {
	g := gen.Path(5)
	h := PreprocessStore(g, 2, 2, PolicyMinRank).RoutingHalf()
	if h.CompIdxOf(h.Routing.CenterIdx) != -1 {
		t.Error("the centre belongs to no local component")
	}
	if h.Routing.Contains(99) {
		t.Error("unknown vertex must be outside the routing view")
	}
	ref := PreprocessRef(g, 2, 2, PolicyMinRank)
	if ref.CompOf(2) != nil {
		t.Error("the reference centre belongs to no local component")
	}
	if ref.CompRootedAt(99) != nil {
		t.Error("unknown vertex must have no reference component")
	}
}

func TestFig17DormantEdgeDetected(t *testing.T) {
	f, err := gen.NewFig17(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Every node that sees the small cycle classifies {s,d} dormant; in
	// particular s itself.
	v := PreprocessStore(f.G, f.S, f.K, PolicyMinRank)
	if !v.IsDormant(graph.NewEdge(f.S, f.D)) {
		t.Errorf("{s,d} not dormant at s: dormant=%v", v.RoutingHalf().Dormant)
	}
	if v.ActiveDegree() != 1 {
		t.Errorf("s should have a single active neighbour, got %v", v.RoutingHalf().ActiveRoots)
	}
	// The big cycle stays fully consistent.
	cons := ConsistentSubgraph(f.G, f.K)
	if cons.HasEdge(f.S, f.D) {
		t.Error("{s,d} must be globally inconsistent")
	}
	if cons.M() != f.G.M()-1 {
		t.Errorf("exactly one edge should be inconsistent, got %d of %d", cons.M(), f.G.M())
	}
}

func TestPreprocessorCachesAndIsConcurrencySafe(t *testing.T) {
	g := gen.Cycle(12)
	p := NewPreprocessor(g, 5, PolicyMinRank, CacheOptions{})
	if p.K() != 5 || p.Store() != g {
		t.Error("accessors wrong")
	}
	a := p.At(0, nil)
	b := p.At(0, nil)
	if a != b {
		t.Error("views must be cached")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := NewScratch()
		for i := 0; i < 12; i++ {
			p.At(graph.Vertex(i), sc)
		}
	}()
	for i := 11; i >= 0; i-- {
		p.At(graph.Vertex(i), nil)
	}
	<-done
}

func TestConsistentEdgesTreeIsEverything(t *testing.T) {
	g := gen.RandomTree(rand.New(rand.NewSource(29)), 20)
	if got := len(ConsistentEdges(g, 3)); got != g.M() {
		t.Errorf("trees have no cycles: %d consistent of %d", got, g.M())
	}
}

func TestConsistencyMatchesLocalDormancy(t *testing.T) {
	// An edge is globally inconsistent iff some node classifies it
	// dormant (the equivalence DESIGN.md relies on).
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(12)
		g := gen.RandomConnected(rng, n, 0.25)
		k := 1 + rng.Intn(4)
		consistent := make(map[graph.Edge]bool)
		for _, e := range ConsistentEdges(g, k) {
			consistent[e] = true
		}
		dormantSomewhere := make(map[graph.Edge]bool)
		for _, u := range g.Vertices() {
			for _, e := range PreprocessStore(g, u, k, PolicyMinRank).RoutingHalf().Dormant {
				dormantSomewhere[e] = true
			}
		}
		for _, e := range g.Edges() {
			if consistent[e] == dormantSomewhere[e] {
				t.Fatalf("edge %v: consistent=%v dormantSomewhere=%v (k=%d, g=%v)",
					e, consistent[e], dormantSomewhere[e], k, g)
			}
		}
	}
}
