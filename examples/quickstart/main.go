// Quickstart: build a small network, run every k-local routing algorithm
// at its own threshold, and print the routes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"klocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A 20-node network: a ring with a few chords and a pendant path —
	// big enough that no node sees the whole topology at k = n/4.
	b := klocal.NewBuilder()
	for i := 0; i < 16; i++ {
		b.AddEdge(klocal.Vertex(i), klocal.Vertex((i+1)%16))
	}
	b.AddEdge(0, 5).AddEdge(3, 12)
	b.AddPath(8, 16, 17, 18, 19)
	g := b.Build()

	s, t := klocal.Vertex(0), klocal.Vertex(19)
	fmt.Printf("network: n=%d m=%d, routing %d -> %d (shortest %d hops)\n\n",
		g.N(), g.M(), s, t, g.Dist(s, t))

	algorithms := []klocal.Algorithm{
		klocal.Algorithm1(),  // origin-aware, predecessor-aware, k >= n/4
		klocal.Algorithm1B(), // same, dilation < 6
		klocal.Algorithm2(),  // origin-oblivious, k >= n/3
		klocal.Algorithm3(),  // fully oblivious shortest paths, k >= n/2
	}
	for _, alg := range algorithms {
		k := alg.MinK(g.N())
		res := klocal.Route(alg, g, k, s, t)
		if res.Outcome != klocal.Delivered {
			return fmt.Errorf("%s did not deliver: %v", alg.Name, res.Outcome)
		}
		fmt.Printf("%-12s k=%-2d  %2d hops (dilation %.2f)  route %v\n",
			alg.Name, k, res.Len(), res.Dilation(), res.Route)
	}

	// What does a node actually know? Inspect a k-neighbourhood and the
	// preprocessed routing view.
	k := klocal.MinK1(g.N())
	view := klocal.Preprocess(g, s, k)
	fmt.Printf("\nnode %d at k=%d: |G_k| = %d vertices, %d dormant edge(s), active degree %d\n",
		s, k, view.C.Raw.NV(), len(view.RoutingHalf().Dormant), view.ActiveDegree())
	return nil
}
