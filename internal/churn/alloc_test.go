package churn

import (
	"runtime"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
)

// flapAllocs returns the allocations of one chord flap (Apply of the
// add, then Apply of the remove) on a side×side grid, k = 3. The chord
// joins two interior vertices 10 apart around the centre, so both grids
// present identical k-balls and only n differs.
func flapAllocs(t *testing.T, side int) float64 {
	t.Helper()
	g := gen.Grid(side, side)
	c := side / 2
	add := Delta{Op: AddEdge, U: graph.Vertex(c*side + c), V: graph.Vertex(c*side + c + 10)}
	rm := add
	rm.Op = RemoveEdge
	plus, _, err := Apply(g, add, 3)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if _, _, err := Apply(g, add, 3); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Apply(plus, rm, 3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFlapAllocsIndependentOfN gates the locality theorem's cost
// promise on the churn path: a flap allocates the same count of objects
// at n = 10⁴ as at n = 4·10⁴ (the two int32 CSR arrays are one
// allocation each, whatever their length), and the derived graph needs
// no lazily built state before it can be routed.
func TestFlapAllocsIndependentOfN(t *testing.T) {
	small, large := flapAllocs(t, 100), flapAllocs(t, 200)
	if small != large {
		t.Fatalf("a chord flap allocates %v objects at n=10^4 but %v at n=4·10^4", small, large)
	}

	// The first DistScratch on a freshly derived graph, with a scratch
	// already sized on its parent, must allocate nothing. Measured with
	// ReadMemStats around that one call, since AllocsPerRun warms up
	// first; the minimum over a few fresh derivations rules out a
	// background allocation landing inside the window.
	g := gen.Grid(100, 100)
	sc := graph.NewSearchScratch()
	g.DistScratch(0, graph.Vertex(g.N()-1), sc)
	best := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		d := Delta{Op: AddEdge, U: 5050, V: graph.Vertex(5060 + trial)}
		post, _, err := Apply(g, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dist := post.DistScratch(d.U, d.V, sc)
		runtime.ReadMemStats(&after)
		if dist != 1 {
			t.Fatalf("DistScratch over the new chord = %d, want 1", dist)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Fatalf("the first DistScratch on a derived graph allocates %d objects, want 0", best)
	}
}
