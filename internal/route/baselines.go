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
		ports := portViews(p)
		return func(_, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
			if hop := view.C.NextHopFromCenter(t); hop != graph.NoVertex {
				return hop, nil
			}
			raw, row := centreRow(view, ports, sc)
			if len(row) == 0 {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			// Hand-rolled binary search for v's port (the row is in
			// label order): sort.Search's closure would allocate on
			// every forwarding decision.
			lo, hi := 0, len(row)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if raw.Verts[row[mid]] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(row) || raw.Verts[row[lo]] != v {
				return raw.Verts[row[0]], nil
			}
			return raw.Verts[row[(lo+1)%len(row)]], nil
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

// portViews returns nil for k ≥ 1, where G_k(u) carries every edge at
// u. A router always knows its own ports (Section 2), but G_0(u) has no
// edges, so at k < 1 it returns a second cache of k = 1 views over the
// same store, bounded like p's, read only at the handed view's centre.
func portViews(p *prep.Preprocessor) *prep.Preprocessor {
	if p.K() >= 1 {
		return nil
	}
	return prep.NewPreprocessor(p.Store(), 1, 0, p.Options())
}

// centreRow returns the view that lists the centre's ports — view
// itself, or at k < 1 the ports cache's k = 1 view at its centre — and
// the centre's row there as local indices, ascending (label order); the
// row is nil for the empty view of an absent centre.
//
//klocal:hotpath
func centreRow(view *prep.View, ports *prep.Preprocessor, sc *prep.Scratch) (*nbhd.CompactView, []int32) {
	raw := view.C.Raw
	if ports != nil {
		raw = ports.At(view.Center, sc).C.Raw
	}
	if raw.NV() == 0 {
		return raw, nil
	}
	return raw, raw.Row(raw.CenterIdx)
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
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				//klocal:allow the oracle baseline has full topology knowledge by design (the comparator the paper's model forbids)
				hop := g.NextHopToward(view.Center, t)
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
// generator, shared (and serialized) across every binding of the returned
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
		ports := portViews(p)
		rng := newRNG()
		return func(_, t, _ graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
			if hop := view.C.NextHopFromCenter(t); hop != graph.NoVertex {
				return hop, nil
			}
			raw, row := centreRow(view, ports, sc)
			if len(row) == 0 {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("%w: isolated node", ErrNoRoute)
			}
			mu.Lock()
			i := rng.Intn(len(row))
			mu.Unlock()
			return raw.Verts[row[i]], nil
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
