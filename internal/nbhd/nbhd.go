// Package nbhd implements the paper's k-neighbourhood machinery: the
// subgraph G_k(u) of all paths rooted at u with length at most k, and the
// classification of the local components of G_k(u)\{u} into active /
// passive, constrained (with their constraint vertices) and independent
// components (Section 2.1 and Figure 1 of the paper).
package nbhd

import (
	"sort"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// Neighborhood is G_k(u): everything node u is allowed to know, in
// label space over maps. It is the reference form: routing decisions
// read the compact views prep's cache holds (CompactView), and the
// klocality analyzer flags a decision path that builds a Neighborhood.
type Neighborhood struct {
	Center graph.Vertex
	K      int
	// G is the neighbourhood subgraph itself.
	G *graph.Graph
	// Dist maps every vertex of G to its distance from Center (equal to
	// the distance in the underlying network for all included vertices).
	Dist map[graph.Vertex]int
}

// Extract computes G_k(u) from any store: the vertices within distance k
// of u, and the edges whose nearer endpoint is within distance k−1. (An
// edge joining two vertices both at distance exactly k lies only on
// paths of length > k rooted at u and is therefore not part of u's
// knowledge.) An absent centre yields the empty view.
func Extract(st bigraph.Store, u graph.Vertex, k int) *Neighborhood {
	dist := make(map[graph.Vertex]int)
	b := graph.NewBuilder()
	// One visitor per pass, not one closure per dequeued vertex: x and
	// dx carry the vertex being expanded.
	var queue []graph.Vertex
	var x graph.Vertex
	var dx int
	discover := func(w graph.Vertex) bool {
		if _, seen := dist[w]; !seen {
			dist[w] = dx + 1
			queue = append(queue, w)
		}
		return true
	}
	link := func(w graph.Vertex) bool {
		if _, ok := dist[w]; ok {
			b.AddEdge(x, w)
		}
		return true
	}
	if st.HasVertex(u) {
		dist[u] = 0
		queue = append(queue, u)
		for head := 0; head < len(queue); head++ {
			x = queue[head]
			if dx = dist[x]; dx < k {
				st.EachAdj(x, discover)
			}
		}
	}
	for v, dv := range dist {
		b.AddVertex(v)
		if dv < k {
			x = v
			st.EachAdj(v, link)
		}
	}
	return &Neighborhood{Center: u, K: k, G: b.Build(), Dist: dist}
}

// Contains reports whether v is within u's knowledge.
func (nb *Neighborhood) Contains(v graph.Vertex) bool {
	_, ok := nb.Dist[v]
	return ok
}

// Component is a local component of the view: a connected component of
// view\{center}, classified per the paper.
type Component struct {
	// Vertices of the component, sorted by label.
	Vertices []graph.Vertex
	// Roots are the neighbours of the centre inside the component, sorted
	// by label (a component may have several roots).
	Roots []graph.Vertex
	// Active reports whether the component reaches the knowledge horizon:
	// it contains a vertex at distance exactly k from the centre.
	Active bool
	// Independent reports whether the component has a unique root.
	Independent bool
	// Constrained reports whether the component is active and every
	// active path passes through some vertex other than the centre.
	Constrained bool
	// ConstraintVertices holds every constraint vertex (vertices other
	// than the centre lying on all active paths of the component), sorted
	// by label. Empty for passive or unconstrained components.
	ConstraintVertices []graph.Vertex
}

// Has reports whether v belongs to the component, by binary search in the
// sorted member list (no per-component membership map).
//
//klocal:hotpath
func (c *Component) Has(v graph.Vertex) bool {
	lo, hi := 0, len(c.Vertices)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Vertices[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.Vertices) && c.Vertices[lo] == v
}

// Root returns the unique root of an independent component; for
// multi-rooted components it returns the lowest-labelled root (the
// canonical representative used by rank-based tie-breaks).
func (c *Component) Root() graph.Vertex { return c.Roots[0] }

// Components classifies the local components of the neighbourhood.
// Components are ordered by their lowest-labelled root.
func (nb *Neighborhood) Components() []*Component {
	return ClassifyView(nb.G, nb.Center, nb.K)
}

// ClassifyView classifies the local components of an arbitrary view graph
// around a centre with knowledge radius k. The view must contain the
// centre; distances are measured inside the view. It runs the compact
// classification on a fresh scratch and materializes the result in
// label space, for the map-shaped reference path only (prep.PreprocessRef
// runs it on the routing subgraph G'_k(u)). The per-candidate
// remove-and-re-BFS implementation it replaced survives as
// ClassifyViewRef; TestClassifyMatchesRef and the klocalcheck "compact"
// property pin the equivalence.
func ClassifyView(view *graph.Graph, center graph.Vertex, k int) []*Component {
	sc := NewScratch()
	if !sc.FromView(view, center, k) {
		return nil
	}
	sc.Classify()
	cv := &sc.View
	comps := make([]*Component, 0, len(sc.Comps))
	for i := range sc.Comps {
		cc := &sc.Comps[i]
		c := &Component{
			Vertices:    make([]graph.Vertex, len(cc.Verts)),
			Roots:       make([]graph.Vertex, len(cc.Roots)),
			Active:      cc.Active,
			Independent: cc.Independent,
			Constrained: cc.Constrained,
		}
		for j, li := range cc.Verts {
			c.Vertices[j] = cv.Verts[li]
		}
		for j, li := range cc.Roots {
			c.Roots[j] = cv.Verts[li]
		}
		if len(cc.Constraints) > 0 {
			c.ConstraintVertices = make([]graph.Vertex, len(cc.Constraints))
			for j, li := range cc.Constraints {
				c.ConstraintVertices[j] = cv.Verts[li]
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// ClassifyViewRef is the reference classification: the direct map-based
// transcription of the paper's definitions, one remove-vertex-and-re-BFS
// per constraint candidate. It is retained solely to pin the compact
// implementation (differential tests and the klocalcheck "compact"
// property); production paths use ClassifyView.
func ClassifyViewRef(view *graph.Graph, center graph.Vertex, k int) []*Component {
	dist := view.BFS(center)
	removed := view.WithoutVertex(center)
	var comps []*Component
	for _, vs := range removed.Components() {
		c := &Component{Vertices: vs}
		view.EachAdj(center, func(w graph.Vertex) bool {
			if c.Has(w) {
				c.Roots = append(c.Roots, w)
			}
			return true
		})
		if len(c.Roots) == 0 {
			// A component of view\{center} not adjacent to the centre can
			// only arise from a malformed view; skip it rather than
			// misclassify.
			continue
		}
		sort.Slice(c.Roots, func(i, j int) bool { return c.Roots[i] < c.Roots[j] })
		c.Independent = len(c.Roots) == 1
		var horizon []graph.Vertex
		for _, v := range vs {
			if dist[v] == k {
				horizon = append(horizon, v)
			}
		}
		c.Active = len(horizon) > 0
		if c.Active {
			c.ConstraintVertices = constraintVerticesRef(view, center, horizon, c, dist)
			c.Constrained = len(c.ConstraintVertices) > 0
		}
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Roots[0] < comps[j].Roots[0] })
	return comps
}

// constraintVerticesRef returns the vertices w ≠ center that lie on every
// active path of the component: every shortest path in the view from the
// centre to a horizon vertex of the component. A vertex w lies on every
// shortest u→z path iff removing w increases (or destroys) the u→z
// distance.
func constraintVerticesRef(view *graph.Graph, center graph.Vertex, horizon []graph.Vertex, c *Component, dist map[graph.Vertex]int) []graph.Vertex {
	var out []graph.Vertex
	for _, w := range c.Vertices {
		// A horizon vertex w trivially lies on every u→w path; the paper
		// allows it (only the centre is excluded), so it is checked like
		// any other vertex against the remaining horizon.
		without := view.WithoutVertex(w)
		onAll := true
		for _, z := range horizon {
			if z == w {
				continue
			}
			if d, ok := without.BFS(center)[z]; ok && d == dist[z] {
				onAll = false
				break
			}
		}
		if onAll {
			out = append(out, w)
		}
	}
	return out
}
