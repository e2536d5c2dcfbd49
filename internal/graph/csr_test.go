package graph

import (
	"math/rand"
	"testing"
)

func randomConnected(r *rand.Rand, n int) *Graph {
	b := NewBuilder()
	for v := 1; v < n; v++ {
		b.AddEdge(Vertex(v), Vertex(r.Intn(v)))
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		b.AddEdge(Vertex(r.Intn(n)), Vertex(r.Intn(n)))
	}
	return b.Build()
}

// TestCSRRoundTrip checks the int-indexed face agrees with the
// label-space one: index/label inverses, and every row matches Adj.
func TestCSRRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(r, 2+r.Intn(40))
		for i, v := range g.Vertices() {
			j, ok := g.Index(v)
			if !ok || int(j) != i {
				t.Fatalf("Index(%d) = %d,%v want %d", v, j, ok, i)
			}
			if g.VertexAt(j) != v {
				t.Fatalf("VertexAt(Index(%d)) = %d", v, g.VertexAt(j))
			}
			row := g.Row(j)
			adj := g.Adj(v)
			if len(row) != len(adj) {
				t.Fatalf("row %d: len %d want %d", v, len(row), len(adj))
			}
			for p, wi := range row {
				if g.VertexAt(wi) != adj[p] {
					t.Fatalf("row %d[%d] = %d want %d", v, p, g.VertexAt(wi), adj[p])
				}
			}
		}
		if _, ok := g.Index(Vertex(1 << 40)); ok {
			t.Fatal("Index found absent vertex")
		}
	}
}

// TestDistScratchMatchesDist checks the scratch BFS distance equals the
// map-keyed Dist on random pairs, including disconnected ones.
func TestDistScratchMatchesDist(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sc := NewSearchScratch()
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(r, 2+r.Intn(40))
		vs := g.Vertices()
		for i := 0; i < 30; i++ {
			u, v := vs[r.Intn(len(vs))], vs[r.Intn(len(vs))]
			if got, want := g.DistScratch(u, v, sc), g.Dist(u, v); got != want {
				t.Fatalf("DistScratch(%d,%d) = %d want %d", u, v, got, want)
			}
		}
		if d := g.DistScratch(vs[0], Vertex(1<<40), sc); d != Infinity {
			t.Fatalf("absent target: got %d", d)
		}
	}
}

// TestSearchScratchAllocs pins the steady-state zero-allocation contract
// of the scratch-based search.
func TestSearchScratchAllocs(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(9)), 64)
	vs := g.Vertices()
	sc := NewSearchScratch()
	g.DistScratch(vs[0], vs[len(vs)-1], sc) // size the scratch
	avg := testing.AllocsPerRun(200, func() {
		g.DistScratch(vs[0], vs[len(vs)-1], sc)
	})
	if avg != 0 {
		t.Fatalf("DistScratch allocates %v/op in steady state, want 0", avg)
	}
}

// TestIndexSparseLabels pins Index on labels that are not 0..n−1
// (negative, gapped) and on the zero Graph.
func TestIndexSparseLabels(t *testing.T) {
	g := FromEdges([]Edge{{-1, 0}, {0, 1}, {1, 3}, {3, 4}}) // verts -1 0 1 3 4
	for v, want := range map[Vertex]int32{-1: 0, 0: 1, 1: 2, 3: 3, 4: 4} {
		if got, ok := g.Index(v); !ok || got != want {
			t.Errorf("Index(%d) = %d,%v, want %d", v, got, ok, want)
		}
	}
	for _, v := range []Vertex{-2, 2, 5, NoVertex} {
		if _, ok := g.Index(v); ok || g.HasVertex(v) {
			t.Errorf("Index(%d) found an absent vertex", v)
		}
	}
	var zero Graph
	if _, ok := zero.Index(0); ok || zero.N() != 0 || zero.M() != 0 || zero.HasEdge(0, 1) {
		t.Error("the zero Graph is not the empty graph")
	}
}
