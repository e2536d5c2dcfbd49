// Package graph implements the undirected simple graph substrate used by
// every other module: connected, unweighted, simple graphs with unique
// integer vertex labels, exactly the network model of Bose, Carmi and
// Durocher, "Bounding the Locality of Distributed Routing Algorithms".
//
// Labels induce the canonical total orders the paper relies on: vertices
// are ranked by label, and edges are ranked lexicographically by the label
// pair of their endpoints ("label each edge by concatenating the labels of
// its endpoints and order edge labels lexicographically"). All tie-breaks
// in the routing algorithms use these ranks, so graphs here are
// deterministic value-like objects: construction happens through a Builder
// and the resulting Graph is immutable.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Vertex is a network node, identified by its unique integer label.
// The label carries no topological information (the paper's adversary may
// permute labels arbitrarily); it only induces the canonical rank order.
type Vertex int

// NoVertex is the sentinel for "no vertex" (the paper's ⊥), used for the
// predecessor of a message that has not been forwarded yet.
const NoVertex Vertex = -1 << 62

// Edge is an undirected edge. A normalized Edge has U < V; NewEdge
// normalizes.
type Edge struct {
	U, V Vertex
}

// NewEdge returns the normalized edge {u, v} with the smaller label first.
func NewEdge(u, v Vertex) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not w. It returns NoVertex if w
// is not an endpoint of e.
func (e Edge) Other(w Vertex) Vertex {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return NoVertex
	}
}

// Less reports whether e precedes f in the canonical edge rank order
// (lexicographic on the normalized endpoint labels).
func (e Edge) Less(f Edge) bool {
	if e.U != f.U {
		return e.U < f.U
	}
	return e.V < f.V
}

func (e Edge) String() string {
	return fmt.Sprintf("{%d,%d}", e.U, e.V)
}

// Graph is an immutable undirected simple graph in compressed sparse
// row form. Vertex index i is the i-th smallest label (verts[i]), index
// is the label → index hash, and row i, to[start[i]:start[i+1]], lists
// the neighbours of verts[i] as indices in ascending order. Index order
// is label order, so a row read back as labels is the adjacency in label
// order and every canonical rank tie-break survives the translation.
// The label-space API below resolves a label through index and then
// reads the arrays; the int-indexed API (csr.go) reads them directly.
// The zero value is the empty graph.
type Graph struct {
	verts []Vertex         // sorted ascending
	index map[Vertex]int32 // verts[index[v]] == v
	dense bool             // verts[i] == i for every i: a label is its own index
	start []int32          // len n+1 (nil for the zero value)
	to    []int32          // 2m arcs, each row ascending
}

// withLabels returns a graph over the sorted, distinct labels verts with
// its index built and start sized; the caller fills start and to.
func withLabels(verts []Vertex) *Graph {
	n := len(verts)
	g := &Graph{
		verts: verts,
		index: make(map[Vertex]int32, n),
		// n sorted, distinct labels from 0 to n−1 are exactly 0..n−1.
		dense: n == 0 || verts[0] == 0 && verts[n-1] == Vertex(n-1),
		start: make([]int32, n+1),
	}
	for i, v := range verts {
		g.index[v] = int32(i)
	}
	return g
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// Adding an existing vertex or edge is a no-op; self-loops are rejected.
type Builder struct {
	adj map[Vertex]map[Vertex]bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{adj: make(map[Vertex]map[Vertex]bool)}
}

// AddVertex ensures v is present.
func (b *Builder) AddVertex(v Vertex) *Builder {
	if _, ok := b.adj[v]; !ok {
		b.adj[v] = make(map[Vertex]bool)
	}
	return b
}

// AddEdge ensures the undirected edge {u, v} is present, adding endpoints
// as needed. Self-loops are ignored: the model is simple graphs.
func (b *Builder) AddEdge(u, v Vertex) *Builder {
	if u == v {
		return b
	}
	b.AddVertex(u)
	b.AddVertex(v)
	b.adj[u][v] = true
	b.adj[v][u] = true
	return b
}

// AddPath adds edges between consecutive vertices of vs.
func (b *Builder) AddPath(vs ...Vertex) *Builder {
	for i := 1; i < len(vs); i++ {
		b.AddEdge(vs[i-1], vs[i])
	}
	return b
}

// AddCycle adds the cycle through vs in order (closing the loop).
func (b *Builder) AddCycle(vs ...Vertex) *Builder {
	if len(vs) < 3 {
		return b
	}
	b.AddPath(vs...)
	b.AddEdge(vs[len(vs)-1], vs[0])
	return b
}

// Build produces the immutable Graph. The Builder remains usable.
func (b *Builder) Build() *Graph {
	verts := make([]Vertex, 0, len(b.adj))
	arcs := 0
	for v, nbrs := range b.adj {
		verts = append(verts, v)
		arcs += len(nbrs)
	}
	slices.Sort(verts)
	g := withLabels(verts)
	g.to = make([]int32, 0, arcs)
	for i, v := range verts {
		g.start[i] = int32(len(g.to))
		for w := range b.adj[v] {
			g.to = append(g.to, g.index[w])
		}
		slices.Sort(g.to[g.start[i]:])
	}
	g.start[len(verts)] = int32(len(g.to))
	return g
}

// FromEdges builds a graph from an edge list (plus optional isolated
// vertices). Unlike the Builder it constructs the rows directly — one
// arc slice sorted once, whose runs are the rows — instead of a map of
// maps, so bulk construction does O(m log m) work into a few flat
// arrays rather than one small map per vertex.
func FromEdges(edges []Edge, isolated ...Vertex) *Graph {
	arcs := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue // simple graphs: self-loops are ignored, as in Builder
		}
		arcs = append(arcs, Edge{U: e.U, V: e.V}, Edge{U: e.V, V: e.U})
	}
	slices.SortFunc(arcs, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	arcs = slices.Compact(arcs)

	var verts []Vertex
	for i, a := range arcs {
		if i == 0 || a.U != arcs[i-1].U {
			verts = append(verts, a.U)
		}
	}
	if len(isolated) > 0 {
		verts = append(verts, isolated...)
		slices.Sort(verts)
		verts = slices.Compact(verts)
	}
	g := withLabels(verts)
	// Arcs are sorted by source, so the run of arcs out of verts[i] is
	// row i, and sorted by target within a run, so each row ascends.
	g.to = make([]int32, len(arcs))
	p := 0
	for i, v := range verts {
		g.start[i] = int32(p)
		for ; p < len(arcs) && arcs[p].U == v; p++ {
			g.to[p] = g.index[arcs[p].V]
		}
	}
	g.start[len(verts)] = int32(p)
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.verts) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.to) / 2 }

// Vertices returns the vertices in label order. The slice is a copy.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, len(g.verts))
	copy(out, g.verts)
	return out
}

// EachVertex calls fn for every vertex in label order, without
// allocating. It stops early if fn returns false.
func (g *Graph) EachVertex(fn func(v Vertex) bool) {
	for _, v := range g.verts {
		if !fn(v) {
			return
		}
	}
}

// Edges returns the edges in canonical rank order. The slice is a copy.
// Row i ascends and rows come in label order, so the arcs i → j with
// i < j, read in row order, are already in rank order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for i, u := range g.verts {
		for _, j := range g.Row(int32(i)) {
			if int(j) > i {
				out = append(out, Edge{U: u, V: g.verts[j]})
			}
		}
	}
	return out
}

// nbrs returns v's row (neighbour indices, ascending), or nil if v is
// absent.
func (g *Graph) nbrs(v Vertex) []int32 {
	i, ok := g.Index(v)
	if !ok {
		return nil
	}
	return g.Row(i)
}

// HasVertex reports whether v is a vertex of g.
func (g *Graph) HasVertex(v Vertex) bool {
	_, ok := g.Index(v)
	return ok
}

// HasEdge reports whether {u, v} is an edge of g: one index lookup for
// u, then a binary search of u's row by label.
func (g *Graph) HasEdge(u, v Vertex) bool {
	row := g.nbrs(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.verts[row[mid]] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && g.verts[row[lo]] == v
}

// Adj returns the neighbours of v in label order. The slice is a copy;
// it is nil if v has no neighbours or is absent.
func (g *Graph) Adj(v Vertex) []Vertex {
	row := g.nbrs(v)
	if len(row) == 0 {
		return nil
	}
	out := make([]Vertex, len(row))
	for p, j := range row {
		out[p] = g.verts[j]
	}
	return out
}

// Deg returns the degree of v (0 if absent).
func (g *Graph) Deg(v Vertex) int { return len(g.nbrs(v)) }

// EachAdj calls fn for every neighbour of v in label order, without
// allocating. It stops early if fn returns false.
func (g *Graph) EachAdj(v Vertex, fn func(w Vertex) bool) {
	for _, j := range g.nbrs(v) {
		if !fn(g.verts[j]) {
			return
		}
	}
}

// MinVertex returns the lowest-labelled vertex; it panics on the empty
// graph (programming error).
func (g *Graph) MinVertex() Vertex {
	if len(g.verts) == 0 {
		panic("graph: MinVertex on empty graph")
	}
	return g.verts[0]
}

// String renders a compact description, useful in test failures.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph{n=%d m=%d;", g.N(), g.M())
	for _, e := range g.Edges() {
		sb.WriteByte(' ')
		sb.WriteString(e.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
