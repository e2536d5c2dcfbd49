package route

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
	"klocal/internal/sim"
)

// treeRightHandRef and randomWalkRef are the baselines as they decided
// before they read the view cache: one map-shaped nbhd.Extract of
// G_k(u) per hop, and one of G_1(u) for the ports at k < 1. They pin
// TreeRightHand and RandomWalk walk for walk (TestBaselinesMatchRef).

func treeRightHandRef() Algorithm {
	a := TreeRightHand()
	a.Name = "RightHandRuleRef"
	a.Over = func(p *prep.Preprocessor) Func {
		st, k := p.Store(), p.K()
		return func(_, t, u, v graph.Vertex) (graph.Vertex, error) {
			view := nbhd.Extract(st, u, k)
			if view.Contains(t) {
				if hop := view.G.NextHopToward(u, t); hop != graph.NoVertex {
					return hop, nil
				}
			}
			adj := view.G.Adj(u)
			if k < 1 {
				adj = nbhd.Extract(st, u, 1).G.Adj(u)
			}
			if len(adj) == 0 {
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			if v == graph.NoVertex {
				return adj[0], nil
			}
			lo, hi := 0, len(adj)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if adj[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(adj) || adj[lo] != v {
				return adj[0], nil
			}
			return adj[(lo+1)%len(adj)], nil
		}
	}
	return a
}

func randomWalkRef(seed int64) Algorithm {
	a := RandomWalk(seed)
	a.Name = "RandomWalkRef"
	var mu sync.Mutex
	a.Over = func(p *prep.Preprocessor) Func {
		st, k := p.Store(), p.K()
		rng := rand.New(rand.NewSource(seed))
		return func(_, t, u, _ graph.Vertex) (graph.Vertex, error) {
			view := nbhd.Extract(st, u, k)
			if view.Contains(t) {
				if hop := view.G.NextHopToward(u, t); hop != graph.NoVertex {
					return hop, nil
				}
			}
			adj := view.G.Adj(u)
			if k < 1 {
				adj = nbhd.Extract(st, u, 1).G.Adj(u)
			}
			if len(adj) == 0 {
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			mu.Lock()
			hop := adj[rng.Intn(len(adj))]
			mu.Unlock()
			return hop, nil
		}
	}
	return a
}

// namedGraph is one test topology.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// baselineFamilies is every generator family plus random connected
// graphs, each relabelled adversarially: the right-hand rule's port
// order is rank order, which tidy generator labels would hide.
func baselineFamilies(rng *rand.Rand) []namedGraph {
	fams := []namedGraph{
		{"path", gen.Path(9)},
		{"cycle", gen.Cycle(11)},
		{"star", gen.Star(7)},
		{"spider", gen.Spider(3, 3)},
		{"lollipop", gen.Lollipop(8, 4)},
		{"theta", gen.Theta(2, 3, 4)},
		{"grid", gen.Grid(3, 4)},
		{"wheel", gen.Wheel(9)},
		{"barbell", gen.Barbell(4, 2)},
		{"complete", gen.Complete(6)},
		{"caterpillar", gen.Caterpillar(4, 2)},
		{"hypercube", gen.Hypercube(3)},
		{"binarytree", gen.BinaryTree(3)},
		{"tree", gen.RandomTree(rng, 11)},
		{"isolated", graph.NewBuilder().AddCycle(0, 1, 2).AddVertex(7).Build()},
	}
	for i := 0; i < 6; i++ {
		fams = append(fams, namedGraph{fmt.Sprintf("random%d", i), gen.RandomConnected(rng, 10+i, 0.2)})
	}
	for i := range fams {
		fams[i].g = fams[i].g.PermuteLabels(gen.RandomLabelPermutation(rng, fams[i].g))
	}
	return fams
}

// TestBaselinesMatchRef pins the right-hand rule and the random walk,
// which decide over the view cache, to their per-hop extracting
// references: every ordered pair of every family, at k ∈ {0, 1, 2, 3,
// ⌊n/2⌋}, over the graph and over its CSR, must end with the same
// outcome after the same walk. The random walks draw from identically
// seeded generators, so any difference in the port order shows as a
// different walk.
func TestBaselinesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const seed = 29
	algs := []struct{ prod, ref Algorithm }{
		{TreeRightHand(), treeRightHandRef()},
		{RandomWalk(seed), randomWalkRef(seed)},
	}
	walks := 0
	for _, fam := range baselineFamilies(rng) {
		name, g := fam.name, fam.g
		n := g.N()
		stores := []struct {
			name string
			st   bigraph.Store
		}{{"graph", g}, {"csr", bigraph.FromGraph(g)}}
		for _, k := range []int{0, 1, 2, 3, n / 2} {
			for _, a := range algs {
				opts := sim.Options{
					DetectLoops:      !a.prod.Randomized,
					PredecessorAware: a.prod.PredecessorAware,
				}
				for _, s := range stores {
					fProd, fRef := a.prod.Bind(s.st, k), a.ref.Bind(g, k)
					for _, src := range g.Vertices() {
						for _, dst := range g.Vertices() {
							if src == dst {
								continue
							}
							got := sim.Run(s.st, sim.Func(fProd), src, dst, opts)
							want := sim.Run(g, sim.Func(fRef), src, dst, opts)
							walks++
							if got.Outcome != want.Outcome || !slicesEqual(got.Route, want.Route) {
								t.Fatalf("%s on %s (%s store), k=%d, %d→%d: %v %v, want %v %v",
									a.prod.Name, name, s.name, k, src, dst, got.Outcome, got.Route, want.Outcome, want.Route)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d walks identical", walks)
}
