package graph

import "slices"

// InducedSubgraph returns the subgraph of g induced by the given vertex
// set: those vertices plus every edge of g with both endpoints in the set.
// Vertices absent from g are ignored.
func (g *Graph) InducedSubgraph(vs []Vertex) *Graph {
	keep := make(map[Vertex]bool, len(vs))
	for _, v := range vs {
		if g.HasVertex(v) {
			keep[v] = true
		}
	}
	b := NewBuilder()
	for v := range keep {
		b.AddVertex(v)
	}
	for _, e := range g.Edges() {
		if keep[e.U] && keep[e.V] {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// EdgeInducedSubgraph returns the subgraph consisting of exactly the given
// edges of g (edges not in g are ignored) and their endpoints.
func (g *Graph) EdgeInducedSubgraph(edges []Edge) *Graph {
	b := NewBuilder()
	for _, e := range edges {
		if g.HasEdge(e.U, e.V) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// WithoutEdges returns a copy of g with the given edges removed. All
// vertices are kept.
func (g *Graph) WithoutEdges(remove []Edge) *Graph {
	drop := make(map[Edge]bool, len(remove))
	for _, e := range remove {
		drop[NewEdge(e.U, e.V)] = true
	}
	b := NewBuilder()
	for _, v := range g.verts {
		b.AddVertex(v)
	}
	for _, e := range g.Edges() {
		if !drop[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// WithoutVertex returns a copy of g with v and its incident edges removed.
func (g *Graph) WithoutVertex(v Vertex) *Graph {
	b := NewBuilder()
	for _, w := range g.verts {
		if w != v {
			b.AddVertex(w)
		}
	}
	for _, e := range g.Edges() {
		if e.U != v && e.V != v {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// FilterEdges returns the subgraph of g keeping all vertices and only the
// edges for which keep returns true.
func (g *Graph) FilterEdges(keep func(Edge) bool) *Graph {
	b := NewBuilder()
	for _, v := range g.verts {
		b.AddVertex(v)
	}
	for _, e := range g.Edges() {
		if keep(e) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// PermuteLabels returns a copy of g with every vertex v relabelled to
// perm[v]. It panics if perm is not defined on some vertex or is not
// injective on the vertex set — that would silently merge vertices, which
// is always a caller bug. This is the paper's adversarial relabelling.
func (g *Graph) PermuteLabels(perm map[Vertex]Vertex) *Graph {
	used := make(map[Vertex]bool, g.N())
	for _, v := range g.verts {
		nv, ok := perm[v]
		if !ok {
			panic("graph: PermuteLabels: permutation missing vertex")
		}
		if used[nv] {
			panic("graph: PermuteLabels: permutation not injective")
		}
		used[nv] = true
	}
	b := NewBuilder()
	for _, v := range g.verts {
		b.AddVertex(perm[v])
	}
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	return b.Build()
}

// Equal reports whether g and h have identical vertex and edge sets
// (labelled equality, not isomorphism).
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	if g.N() == 0 {
		return true
	}
	// The CSR of a vertex and edge set is canonical.
	return slices.Equal(g.verts, h.verts) && slices.Equal(g.start, h.start) && slices.Equal(g.to, h.to)
}

// Union returns the graph whose vertex and edge sets are the unions of
// g's and h's.
func (g *Graph) Union(h *Graph) *Graph {
	b := NewBuilder()
	for _, v := range g.verts {
		b.AddVertex(v)
	}
	for _, v := range h.Vertices() {
		b.AddVertex(v)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for _, e := range h.Edges() {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
