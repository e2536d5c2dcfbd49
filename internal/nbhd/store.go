package nbhd

import (
	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// ExtractStore computes G_k(u) reading topology through the bigraph.Store
// interface — the same contract as Extract, usable on stores too large
// (or too remote) to materialize as a *graph.Graph. For a store that is a
// *graph.Graph the result is identical to Extract's.
func ExtractStore(st bigraph.Store, u graph.Vertex, k int) *Neighborhood {
	dist := make(map[graph.Vertex]int)
	if st.HasVertex(u) {
		dist[u] = 0
		queue := []graph.Vertex{u}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			dx := dist[x]
			if dx >= k {
				continue
			}
			st.EachAdj(x, func(w graph.Vertex) bool {
				if _, seen := dist[w]; !seen {
					dist[w] = dx + 1
					queue = append(queue, w)
				}
				return true
			})
		}
	}
	b := graph.NewBuilder()
	for v := range dist {
		b.AddVertex(v)
	}
	for v, dv := range dist {
		if dv >= k {
			continue
		}
		st.EachAdj(v, func(w graph.Vertex) bool {
			if _, ok := dist[w]; ok {
				b.AddEdge(v, w)
			}
			return true
		})
	}
	return &Neighborhood{Center: u, K: k, G: b.Build(), Dist: dist}
}

// ExtractCSR materializes G_k(u) from a CSR store through sc's map-free
// BFS (CSR.Extract) as a label-space Neighborhood. It fails only where
// CSR.Extract does (absent centre, negative k).
func ExtractCSR(c *bigraph.CSR, u graph.Vertex, k int, sc *bigraph.Scratch) (*Neighborhood, error) {
	if err := c.Extract(u, k, sc); err != nil {
		return nil, err
	}
	dist := make(map[graph.Vertex]int, len(sc.Verts))
	b := graph.NewBuilder()
	for i, vi := range sc.Verts {
		v := c.Label(vi)
		dist[v] = int(sc.Dists[i])
		b.AddVertex(v)
	}
	for _, e := range sc.Edges {
		b.AddEdge(c.Label(e[0]), c.Label(e[1]))
	}
	return &Neighborhood{Center: u, K: k, G: b.Build(), Dist: dist}, nil
}
