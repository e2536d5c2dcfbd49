package route_test

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	. "klocal/internal/route"
	"klocal/internal/sim"
)

// TestCompactStepMatchesRef pins the production (compact, int-indexed)
// decision paths to the retained map-based reference implementations:
// every algorithm must produce hop-for-hop identical walks on random
// graphs at and above its locality threshold. Any divergence is a bug in
// the compact encoding, not in the references.
func TestCompactStepMatchesRef(t *testing.T) {
	pairs := []struct {
		name string
		prod Algorithm
		ref  Algorithm
	}{
		{"Algorithm1", Algorithm1(), Algorithm1Ref()},
		{"Algorithm1B", Algorithm1B(), Algorithm1BRef()},
		{"Algorithm2", Algorithm2(), Algorithm2Ref()},
		{"Algorithm3", Algorithm3(), Algorithm3Ref()},
	}
	rng := rand.New(rand.NewSource(97))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	randomFamily(rng, trials, 14, func(g *graph.Graph) {
		n := g.N()
		for _, p := range pairs {
			// Also exercise one k above threshold: the component
			// structure (and therefore the rule traffic) changes with k.
			for _, k := range []int{p.prod.MinK(n), p.prod.MinK(n) + 1} {
				fProd := sim.Bind(p.prod, g, k)
				fRef := sim.Bind(p.ref, g, k)
				vs := g.Vertices()
				for trial := 0; trial < 6; trial++ {
					s := vs[rng.Intn(len(vs))]
					dst := vs[rng.Intn(len(vs))]
					if s == dst {
						continue
					}
					got := fProd.Run(s, dst)
					want := fRef.Run(s, dst)
					if got.Outcome != want.Outcome {
						t.Fatalf("%s k=%d s=%d t=%d: outcome %v want %v (g=%v)",
							p.name, k, s, dst, got.Outcome, want.Outcome, g)
					}
					if len(got.Route) != len(want.Route) {
						t.Fatalf("%s k=%d s=%d t=%d: route %v want %v (g=%v)",
							p.name, k, s, dst, got.Route, want.Route, g)
					}
					for i := range want.Route {
						if got.Route[i] != want.Route[i] {
							t.Fatalf("%s k=%d s=%d t=%d: hop %d is %d want %d (route %v want %v, g=%v)",
								p.name, k, s, dst, i, got.Route[i], want.Route[i], got.Route, want.Route, g)
						}
					}
				}
			}
		}
	})
}

// TestCompactStepMatchesRefExhaustively is the exhaustive small-n version:
// every connected graph, every (s,t) pair, at the threshold locality.
func TestCompactStepMatchesRefExhaustively(t *testing.T) {
	pairs := []struct {
		name string
		prod Algorithm
		ref  Algorithm
	}{
		{"Algorithm1B", Algorithm1B(), Algorithm1BRef()},
		{"Algorithm2", Algorithm2(), Algorithm2Ref()},
		{"Algorithm3", Algorithm3(), Algorithm3Ref()},
	}
	maxN := 5
	if testing.Short() {
		maxN = 4
	}
	for n := 2; n <= maxN; n++ {
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			for _, p := range pairs {
				k := p.prod.MinK(n)
				fProd := sim.Bind(p.prod, g, k)
				fRef := sim.Bind(p.ref, g, k)
				for _, s := range g.Vertices() {
					for _, dst := range g.Vertices() {
						if s == dst {
							continue
						}
						got := fProd.Run(s, dst)
						want := fRef.Run(s, dst)
						if got.Outcome != want.Outcome || len(got.Route) != len(want.Route) {
							t.Fatalf("%s k=%d s=%d t=%d: (%v, %v) want (%v, %v) g=%v",
								p.name, k, s, dst, got.Outcome, got.Route, want.Outcome, want.Route, g)
						}
						for i := range want.Route {
							if got.Route[i] != want.Route[i] {
								t.Fatalf("%s k=%d s=%d t=%d: route %v want %v g=%v",
									p.name, k, s, dst, got.Route, want.Route, g)
							}
						}
					}
				}
			}
			return true
		})
	}
}
