package route_test

import (
	"math/rand"
	"testing"

	"klocal/internal/graph"
	"klocal/internal/prep"
	. "klocal/internal/route"
	"klocal/internal/sim"
)

// These tests machine-check the structural claims the paper's proofs rest
// on, executed over randomized workloads.

// TestObservation1DirectedEdgesOnce: on every successful route of a
// predecessor-aware algorithm, each edge is traversed at most once in
// each direction.
func TestObservation1DirectedEdgesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	algs := []Algorithm{Algorithm1(), Algorithm1B(), Algorithm2()}
	randomFamily(rng, 30, 22, func(g *graph.Graph) {
		for _, alg := range algs {
			k := alg.MinK(g.N())
			p := prep.NewPreprocessor(g, k, alg.Policy, prep.CacheOptions{})
			f := alg.Over(p)
			vs := g.Vertices()
			for trial := 0; trial < 4; trial++ {
				s := vs[rng.Intn(len(vs))]
				dst := vs[rng.Intn(len(vs))]
				if s == dst {
					continue
				}
				res := sim.Run(p, f, s, dst, sim.Options{DetectLoops: false, PredecessorAware: true})
				if res.Outcome != sim.Delivered {
					t.Fatalf("%s failed %d->%d on %v", alg.Name, s, dst, g)
				}
				seen := make(map[[2]graph.Vertex]bool)
				for i := 1; i < len(res.Route); i++ {
					de := [2]graph.Vertex{res.Route[i-1], res.Route[i]}
					if seen[de] {
						t.Fatalf("%s: directed edge %v repeated on a successful route %v",
							alg.Name, de, res.Route)
					}
					seen[de] = true
				}
			}
		}
	})
}

// TestCorollary3ConsistentEdgesOnly: outside Case 1's shortest-path
// endgame (which the paper routes through the raw neighbourhood),
// Algorithms 1, 1B and 2 forward only along globally consistent edges —
// the property Lemmas 8, 11 and 16 count route edges with.
func TestCorollary3ConsistentEdgesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	algs := []Algorithm{Algorithm1(), Algorithm1B(), Algorithm2()}
	randomFamily(rng, 20, 18, func(g *graph.Graph) {
		for _, alg := range algs {
			k := alg.MinK(g.N())
			consistent := make(map[graph.Edge]bool)
			for _, e := range prep.ConsistentEdges(g, k) {
				consistent[e] = true
			}
			f := sim.Bind(alg, g, k)
			vs := g.Vertices()
			for trial := 0; trial < 4; trial++ {
				s := vs[rng.Intn(len(vs))]
				dst := vs[rng.Intn(len(vs))]
				if s == dst {
					continue
				}
				res := f.Run(s, dst)
				if res.Outcome != sim.Delivered {
					t.Fatalf("%s failed %d->%d", alg.Name, s, dst)
				}
				for i := 1; i < len(res.Route); i++ {
					u := res.Route[i-1]
					if g.Dist(u, dst) <= k {
						break // Case 1 endgame: raw shortest path
					}
					e := graph.NewEdge(u, res.Route[i])
					if !consistent[e] {
						t.Fatalf("%s used inconsistent edge %v outside the endgame on route %v (k=%d, g=%v)",
							alg.Name, e, res.Route, k, g)
					}
				}
			}
		}
	})
}

// TestCorollary4PassiveEntryOnlyForT: outside Case 1, the message never
// enters a passive component; operationally, whenever a hop of
// Algorithm 1 leaves the active roots of the current view, the
// destination must be visible (Case 1).
func TestCorollary4PassiveEntryOnlyForT(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	alg := Algorithm1()
	randomFamily(rng, 20, 18, func(g *graph.Graph) {
		k := alg.MinK(g.N())
		p := prep.NewPreprocessor(g, k, prep.PolicyMinRank, prep.CacheOptions{})
		f := sim.Bind(alg, g, k)
		vs := g.Vertices()
		for trial := 0; trial < 4; trial++ {
			s := vs[rng.Intn(len(vs))]
			dst := vs[rng.Intn(len(vs))]
			if s == dst {
				continue
			}
			res := f.Run(s, dst)
			if res.Outcome != sim.Delivered {
				t.Fatalf("failed %d->%d", s, dst)
			}
			for i := 1; i < len(res.Route); i++ {
				u, hop := res.Route[i-1], res.Route[i]
				view := p.At(u, nil)
				if view.C.Raw.Contains(dst) {
					continue // Case 1: shortest-path endgame
				}
				isActiveRoot := false
				for _, r := range view.RoutingHalf().ActiveRoots {
					if r == hop {
						isActiveRoot = true
					}
				}
				if !isActiveRoot {
					t.Fatalf("hop %d->%d enters a non-active neighbour with t invisible (route %v)",
						u, hop, res.Route)
				}
			}
		}
	})
}

// TestCase1ShortestEndgame: once the destination enters the current
// node's raw k-neighbourhood, the remaining route is exactly a shortest
// path.
func TestCase1ShortestEndgame(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	algs := []Algorithm{Algorithm1(), Algorithm1B(), Algorithm2()}
	randomFamily(rng, 15, 18, func(g *graph.Graph) {
		for _, alg := range algs {
			k := alg.MinK(g.N())
			f := sim.Bind(alg, g, k)
			vs := g.Vertices()
			for trial := 0; trial < 3; trial++ {
				s := vs[rng.Intn(len(vs))]
				dst := vs[rng.Intn(len(vs))]
				if s == dst {
					continue
				}
				res := f.Run(s, dst)
				if res.Outcome != sim.Delivered {
					t.Fatalf("%s failed %d->%d", alg.Name, s, dst)
				}
				// Find the first route position where dist(u, t) <= k;
				// from there the remaining hops must equal the distance.
				for i, u := range res.Route {
					if g.Dist(u, dst) <= k {
						remaining := len(res.Route) - 1 - i
						if remaining != g.Dist(u, dst) {
							t.Fatalf("%s: endgame from %d has %d hops, dist is %d (route %v)",
								alg.Name, u, remaining, g.Dist(u, dst), res.Route)
						}
						break
					}
				}
			}
		}
	})
}

// TestRouteLengthWithinPaperBound: the absolute route-length bounds
// behind the dilation theorems — Algorithm 1's successful routes use at
// most 2m directed... the proofs bound routes by |E(T)| + 2|E(Q)| + 1;
// we check the coarser Observation 1 consequence: length ≤ 2m.
func TestRouteLengthWithinPaperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	algs := []Algorithm{Algorithm1(), Algorithm1B(), Algorithm2()}
	randomFamily(rng, 20, 20, func(g *graph.Graph) {
		for _, alg := range algs {
			k := alg.MinK(g.N())
			f := sim.Bind(alg, g, k)
			vs := g.Vertices()
			for trial := 0; trial < 3; trial++ {
				s := vs[rng.Intn(len(vs))]
				dst := vs[rng.Intn(len(vs))]
				if s == dst {
					continue
				}
				res := f.Run(s, dst)
				if res.Outcome != sim.Delivered {
					t.Fatalf("%s failed", alg.Name)
				}
				if res.Len() > 2*g.M() {
					t.Fatalf("%s route %d exceeds 2m=%d", alg.Name, res.Len(), 2*g.M())
				}
			}
		}
	})
}
