package engine

import (
	"math/rand"
	"sort"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// HotspotSamples is the default number of BFS sources the hotspot
// workload samples when estimating betweenness.
const HotspotSamples = 32

// ApproxBetweenness estimates betweenness centrality by Brandes
// dependency accumulation from a uniform sample of BFS sources (exact
// when samples ≥ n). It returns the label-sorted vertex list and the
// parallel weight estimates; the absolute scale is meaningless, only
// the relative skew matters. Cost is O(samples·(n+m)).
func ApproxBetweenness(st bigraph.Store, rng *rand.Rand, samples int) ([]graph.Vertex, []float64) {
	vs := StoreVertices(st)
	n := len(vs)
	bc := make([]float64, n)
	if n < 3 {
		return vs, bc
	}
	if samples <= 0 {
		samples = HotspotSamples
	}
	sources := rng.Perm(n)
	if samples < n {
		sources = sources[:samples]
	}

	idx := make(map[graph.Vertex]int32, n)
	for i, v := range vs {
		idx[v] = int32(i)
	}
	var (
		order = make([]int32, 0, n) // BFS visit order
		dist  = make([]int32, n)    // -1 = unvisited
		sigma = make([]float64, n)  // shortest-path counts
		delta = make([]float64, n)  // dependency accumulators
		queue = make([]int32, 0, n)
	)
	for _, si := range sources {
		s := int32(si)
		order = order[:0]
		queue = append(queue[:0], s)
		for i := range dist {
			dist[i], sigma[i], delta[i] = -1, 0, 0
		}
		dist[s], sigma[s] = 0, 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			st.EachAdj(vs[v], func(wv graph.Vertex) bool {
				w := idx[wv]
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
				return true
			})
		}
		// Accumulate dependencies in reverse BFS order: each vertex
		// pushes its share back onto its shortest-path predecessors.
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			share := (1 + delta[w]) / sigma[w]
			st.EachAdj(vs[w], func(pv graph.Vertex) bool {
				p := idx[pv]
				if dist[p] == dist[w]-1 {
					delta[p] += sigma[p] * share
				}
				return true
			})
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return vs, bc
}

// Hotspot routes from uniform random sources to destinations skewed by
// approximate betweenness centrality — traffic concentrating on the
// vertices most shortest paths cross (the "core routers"), which is
// where dormant-edge pruning and view caching are stressed hardest.
// samples ≤ 0 uses HotspotSamples.
func Hotspot(rng *rand.Rand, st bigraph.Store, samples int) Workload {
	vs, bc := ApproxBetweenness(st, rng, samples)
	// Cumulative weights for inverse-transform sampling. An all-zero
	// estimate (tiny or star-free degenerate graphs) degrades to the
	// uniform shape rather than failing.
	cum := make([]float64, len(vs))
	total := 0.0
	for i, w := range bc {
		total += w
		cum[i] = total
	}
	if total == 0 {
		w := Uniform(rng, st)
		w.Name = "hotspot"
		return w
	}
	return Workload{
		Name: "hotspot",
		Next: func() Request {
			x := rng.Float64() * total
			t := vs[sort.SearchFloat64s(cum, x)]
			s := vs[rng.Intn(len(vs))]
			for s == t {
				s = vs[rng.Intn(len(vs))]
			}
			return Request{S: s, T: t}
		},
	}
}
