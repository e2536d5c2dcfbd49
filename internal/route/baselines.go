package route

import (
	"fmt"
	"math/rand"
	"sync"

	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// TreeRightHand returns the naive right-hand rule that motivates
// Algorithm 1 (Figure 7): deliver if the destination is visible,
// otherwise forward to the successor of the incoming port in the circular
// rank order of all neighbours. It guarantees delivery on trees for any
// k ≥ 1 but is defeated by cycles longer than 2k.
func TreeRightHand() Algorithm {
	over := func(p *prep.Preprocessor) Func {
		st, k := p.Store(), p.K()
		return func(_, t, u, v graph.Vertex) (graph.Vertex, error) {
			view := nbhd.Extract(st, u, k)
			if view.Contains(t) {
				if hop := view.G.NextHopToward(u, t); hop != graph.NoVertex {
					return hop, nil
				}
			}
			// G_k(u) carries every edge at u for k ≥ 1, so the view's
			// adjacency at u is the true port list. A router always
			// knows its own ports (Section 2), so at k == 0 — where
			// the view has no edges — take them from G_1(u).
			adj := view.G.Adj(u)
			if k < 1 {
				adj = nbhd.Extract(st, u, 1).G.Adj(u)
			}
			if len(adj) == 0 {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			if v == graph.NoVertex {
				return adj[0], nil
			}
			// Hand-rolled binary search: sort.Search's closure would
			// allocate on every forwarding decision.
			lo, hi := 0, len(adj)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if adj[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			i := lo
			if i == len(adj) || adj[i] != v {
				return adj[0], nil
			}
			return adj[(i+1)%len(adj)], nil
		}
	}
	return Algorithm{
		Name:             "RightHandRule",
		OriginAware:      false,
		PredecessorAware: true,
		MinK:             func(int) int { return 0 },
		Over:             over,
	}
}

// ShortestPathOracle returns the centralized baseline: a router with full
// topology knowledge that always forwards along a shortest path. It is
// the "routing table" comparator for the dilation experiments.
func ShortestPathOracle() Algorithm {
	return Algorithm{
		Name:             "ShortestPathOracle",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(p *prep.Preprocessor) Func {
			g, ok := p.Store().(*graph.Graph)
			if !ok {
				return nil
			}
			return func(_, t, u, _ graph.Vertex) (graph.Vertex, error) {
				//klocal:allow the oracle baseline has full topology knowledge by design (the comparator the paper's model forbids)
				hop := g.NextHopToward(u, t)
				if hop == graph.NoVertex {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("%w: destination unreachable", ErrNoRoute)
				}
				return hop, nil
			}
		},
	}
}

// RandomWalk returns the randomized reference discussed in Section 3
// (Chen et al.) with a self-contained generator: every binding derives a
// fresh *rand.Rand from seed, so repeated binds of the same Algorithm
// value replay identical draw sequences. See RandomWalkRand for the
// caller-owned-generator variant.
func RandomWalk(seed int64) Algorithm {
	return randomWalk(func() *rand.Rand { return rand.New(rand.NewSource(seed)) })
}

// RandomWalkRand is RandomWalk drawing from an explicit caller-owned
// generator, shared (and serialized) across every Bind of the returned
// Algorithm. Randomness enters routing only through such an explicit
// seeded *rand.Rand — never through math/rand's ambient global
// functions — which is what lets the kdeterminism analyzer whitelist
// the baseline structurally instead of by path.
func RandomWalkRand(rng *rand.Rand) Algorithm {
	return randomWalk(func() *rand.Rand { return rng })
}

// randomWalk builds the baseline over a generator source: forward to a
// uniformly random neighbour, delivering when the destination becomes
// visible. Expected route length on adversarial instances is Θ(n²), the
// benchmark's contrast to the deterministic bounds. The returned routing
// function serializes its RNG and is safe for concurrent use; for
// reproducible concurrent randomized runs, bind one walker per worker
// with distinct seeds.
func randomWalk(newRNG func() *rand.Rand) Algorithm {
	var mu sync.Mutex
	over := func(p *prep.Preprocessor) Func {
		st, k := p.Store(), p.K()
		rng := newRNG()
		return func(_, t, u, _ graph.Vertex) (graph.Vertex, error) {
			view := nbhd.Extract(st, u, k)
			if view.Contains(t) {
				if hop := view.G.NextHopToward(u, t); hop != graph.NoVertex {
					return hop, nil
				}
			}
			adj := view.G.Adj(u)
			if k < 1 {
				// Ports are always known (Section 2): use G_1(u).
				adj = nbhd.Extract(st, u, 1).G.Adj(u)
			}
			if len(adj) == 0 {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			mu.Lock()
			hop := adj[rng.Intn(len(adj))]
			mu.Unlock()
			return hop, nil
		}
	}
	return Algorithm{
		Name:             "RandomWalk",
		OriginAware:      false,
		PredecessorAware: false,
		Randomized:       true,
		MinK:             func(int) int { return 0 },
		Over:             over,
	}
}
