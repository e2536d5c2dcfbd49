package bigraph_test

import (
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// TestExtractMatchesNbhd is the in-package differential: CSR extraction
// must reproduce nbhd.Extract's vertex set, distances and edge set for
// every source and locality (the klocalcheck "csr" property fuzzes the
// same claim over random GraphSpecs).
func TestExtractMatchesNbhd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		gen.Path(7),
		gen.Cycle(12),
		gen.Grid(4, 6),
		gen.Lollipop(8, 5),
		gen.RandomConnected(rng, 24, 0.12),
		gen.RandomTree(rng, 18),
	}
	sc := bigraph.NewScratch()
	for _, g := range graphs {
		c := bigraph.FromGraph(g)
		for k := 0; k <= g.N()/2+1; k++ {
			for _, u := range g.Vertices() {
				want := nbhd.Extract(g, u, k)
				if err := c.Extract(u, k, sc); err != nil {
					t.Fatalf("Extract(%d, %d): %v", u, k, err)
				}
				if len(sc.Verts) != len(want.Dist) {
					t.Fatalf("u=%d k=%d: %d view vertices, want %d", u, k, len(sc.Verts), len(want.Dist))
				}
				for i, vi := range sc.Verts {
					v := c.Label(vi)
					wd, ok := want.Dist[v]
					if !ok {
						t.Fatalf("u=%d k=%d: vertex %d not in nbhd view", u, k, v)
					}
					if int(sc.Dists[i]) != wd {
						t.Fatalf("u=%d k=%d: dist(%d)=%d, want %d", u, k, v, sc.Dists[i], wd)
					}
				}
				if len(sc.Edges) != want.G.M() {
					t.Fatalf("u=%d k=%d: %d view edges, want %d\nview %s",
						u, k, len(sc.Edges), want.G.M(), want.G)
				}
				for _, e := range sc.Edges {
					a, b := c.Label(e[0]), c.Label(e[1])
					if !want.G.HasEdge(a, b) {
						t.Fatalf("u=%d k=%d: extra view edge {%d,%d}", u, k, a, b)
					}
				}
			}
		}
	}
}

// TestExtractDeterministic pins the BFS discovery order: same input,
// byte-identical scratch output across runs and scratch reuse.
func TestExtractDeterministic(t *testing.T) {
	g := gen.Grid(5, 5)
	c := bigraph.FromGraph(g)
	a, b := bigraph.NewScratch(), bigraph.NewScratch()
	for round := 0; round < 3; round++ {
		for _, u := range g.Vertices() {
			if err := c.Extract(u, 3, a); err != nil {
				t.Fatal(err)
			}
			if err := c.Extract(u, 3, b); err != nil {
				t.Fatal(err)
			}
			if len(a.Verts) != len(b.Verts) || len(a.Edges) != len(b.Edges) {
				t.Fatalf("u=%d: shapes differ", u)
			}
			for i := range a.Verts {
				if a.Verts[i] != b.Verts[i] || a.Dists[i] != b.Dists[i] {
					t.Fatalf("u=%d: vertex order diverged at %d", u, i)
				}
			}
			for i := range a.Edges {
				if a.Edges[i] != b.Edges[i] {
					t.Fatalf("u=%d: edge order diverged at %d", u, i)
				}
			}
		}
	}
}

// TestExtractAllocs is the alloc regression gate for the tentpole claim:
// once the scratch has warmed up, G_k(u) extraction from CSR performs
// zero allocations per call.
func TestExtractAllocs(t *testing.T) {
	g := gen.Grid(20, 20)
	c := bigraph.FromGraph(g)
	sc := bigraph.NewScratch()
	vs := g.Vertices()
	// Warm up: size the scratch to the largest view it will see.
	for _, u := range vs {
		if err := c.Extract(u, 6, sc); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		u := vs[i%len(vs)]
		i++
		if err := c.Extract(u, 6, sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Extract allocates %.1f times per call, want 0", avg)
	}
}

func TestExtractErrors(t *testing.T) {
	c := bigraph.FromGraph(gen.Path(4))
	sc := bigraph.NewScratch()
	if err := c.Extract(99, 2, sc); err == nil {
		t.Fatal("extracting from an absent vertex should fail")
	}
	if err := c.Extract(0, -1, sc); err == nil {
		t.Fatal("negative locality should fail")
	}
}
