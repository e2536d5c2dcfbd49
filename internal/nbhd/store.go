package nbhd

import (
	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

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
