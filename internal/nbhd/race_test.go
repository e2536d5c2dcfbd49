package nbhd_test

// Concurrency contracts of the extraction layer, exercised under
// `make race`: a *graph.Graph and a *bigraph.CSR are immutable after
// construction and safe for any number of concurrent readers, and the
// documented per-worker-Scratch discipline is sufficient — concurrent
// ExtractCSR calls sharing the store but not the scratch are race-free.

import (
	"sync"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/nbhd"
)

func TestConcurrentExtractSharedGraph(t *testing.T) {
	g := gen.Grid(12, 12)
	c := bigraph.FromGraph(g)
	verts := g.Vertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := verts[(w*53+i*17)%len(verts)]
				k := 1 + (w+i)%3
				nb := nbhd.Extract(g, u, k)
				if !nb.G.HasVertex(u) {
					t.Errorf("Extract(%d, %d): view misses its own centre", u, k)
					return
				}
				st := nbhd.Extract(c, u, k)
				if st.G.N() != nb.G.N() {
					t.Errorf("Extract over graph and CSR disagree at (%d, %d): %d vs %d vertices",
						u, k, nb.G.N(), st.G.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentExtractCSRPerWorkerScratch(t *testing.T) {
	c, err := gen.GridCSR(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid(12, 12)
	verts := g.Vertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := bigraph.NewScratch() // one scratch per worker, reused across calls
			for i := 0; i < 40; i++ {
				u := verts[(w*29+i*13)%len(verts)]
				k := 1 + (w+i)%3
				nb, err := nbhd.ExtractCSR(c, u, k, sc)
				if err != nil {
					t.Errorf("ExtractCSR(%d, %d): %v", u, k, err)
					return
				}
				want := nbhd.Extract(g, u, k)
				if nb.G.N() != want.G.N() || nb.G.M() != want.G.M() {
					t.Errorf("ExtractCSR(%d, %d) diverges from Extract: %d/%d vs %d/%d vertices/edges",
						u, k, nb.G.N(), nb.G.M(), want.G.N(), want.G.M())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
