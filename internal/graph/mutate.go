package graph

import "slices"

// This file is the copy-on-write face of the immutable Graph: derive a
// one-delta neighbour of g without rebuilding it from an edge list.
//
// An edge added or removed between existing vertices keeps the vertex
// set, so the derived graph shares the parent's label array and index
// map (both immutable) and splices only the two CSR arrays: one flat
// copy of start with a constant added past each endpoint, and one flat
// copy of to with one arc inserted into (or cut out of) each endpoint's
// row. That is O(n + m) int32 copying with no hashing and no sorting,
// which is what internal/churn's incremental topology updates lean on.
//
// A vertex arrival or removal shifts every index above the vertex's
// rank, so it rebuilds the index and remaps the arcs in one O(n + m)
// pass.

// rowSearch returns the position of x in row (ascending), or where it
// would be inserted.
func rowSearch(row []int32, x int32) int32 {
	p, _ := slices.BinarySearch(row, x)
	return int32(p)
}

// spliceAdd returns g plus the edge between the existing, non-adjacent
// indices a and b.
func (g *Graph) spliceAdd(a, b int32) *Graph {
	if a > b {
		a, b = b, a
	}
	pa := g.start[a] + rowSearch(g.Row(a), b)
	pb := g.start[b] + rowSearch(g.Row(b), a)
	to := make([]int32, len(g.to)+2)
	n := copy(to, g.to[:pa])
	to[n] = b
	n += 1 + copy(to[n+1:], g.to[pa:pb])
	to[n] = a
	copy(to[n+1:], g.to[pb:])
	return &Graph{verts: g.verts, index: g.index, start: shiftStarts(g.start, a, b, 1), to: to}
}

// spliceRemove returns g without the edge between the adjacent indices
// a and b.
func (g *Graph) spliceRemove(a, b int32) *Graph {
	if a > b {
		a, b = b, a
	}
	pa := g.start[a] + rowSearch(g.Row(a), b)
	pb := g.start[b] + rowSearch(g.Row(b), a)
	to := make([]int32, 0, len(g.to)-2)
	to = append(to, g.to[:pa]...)
	to = append(to, g.to[pa+1:pb]...)
	to = append(to, g.to[pb+1:]...)
	return &Graph{verts: g.verts, index: g.index, start: shiftStarts(g.start, a, b, -1), to: to}
}

// shiftStarts returns a copy of start for one arc added (d = 1) or
// removed (d = −1) in each of rows a < b: rows after a move by d, rows
// after b by 2d.
func shiftStarts(start []int32, a, b, d int32) []int32 {
	out := make([]int32, len(start))
	copy(out, start[:a+1])
	for i := a + 1; i <= b; i++ {
		out[i] = start[i] + d
	}
	for i := b + 1; i < int32(len(start)); i++ {
		out[i] = start[i] + 2*d
	}
	return out
}

// insertVertex returns g plus the absent, isolated vertex v. Indices at
// or above v's rank p shift up by one.
func (g *Graph) insertVertex(v Vertex) *Graph {
	p, _ := slices.BinarySearch(g.verts, v)
	ng := withLabels(slices.Insert(slices.Clone(g.verts), p, v))
	ng.to = make([]int32, len(g.to))
	for a, j := range g.to {
		if int(j) >= p {
			j++
		}
		ng.to[a] = j
	}
	for i, s := range g.start {
		if i >= p {
			i++
		}
		ng.start[i] = s
	}
	ng.start[p] = ng.start[p+1] // the new row is empty
	return ng
}

// WithEdge returns g with the undirected edge {u, v} added, creating
// absent endpoints. Self-loops and already-present edges return g
// itself (the model is simple graphs; the derivation is a no-op).
func (g *Graph) WithEdge(u, v Vertex) *Graph {
	if u == v || g.HasEdge(u, v) {
		return g
	}
	cur := g
	for _, w := range [2]Vertex{u, v} {
		if !cur.HasVertex(w) {
			cur = cur.insertVertex(w)
		}
	}
	return cur.spliceAdd(cur.index[u], cur.index[v])
}

// WithoutEdge returns g with the undirected edge {u, v} removed (both
// endpoints kept). An absent edge returns g itself.
func (g *Graph) WithoutEdge(u, v Vertex) *Graph {
	if !g.HasEdge(u, v) {
		return g
	}
	return g.spliceRemove(g.index[u], g.index[v])
}

// DropVertex returns g with v and every incident edge removed; if v is
// absent, g itself. Indices above v's rank p shift down by one.
func (g *Graph) DropVertex(v Vertex) *Graph {
	p, ok := g.index[v]
	if !ok {
		return g
	}
	ng := withLabels(slices.Delete(slices.Clone(g.verts), int(p), int(p)+1))
	ng.to = make([]int32, 0, len(g.to)-2*len(g.Row(p)))
	for i := range g.verts {
		if int32(i) == p {
			continue
		}
		ni := i
		if int32(i) > p {
			ni--
		}
		ng.start[ni] = int32(len(ng.to))
		for _, j := range g.Row(int32(i)) {
			switch {
			case j == p:
				continue
			case j > p:
				j--
			}
			ng.to = append(ng.to, j)
		}
	}
	ng.start[len(ng.verts)] = int32(len(ng.to))
	return ng
}

// WithVertex returns g with the isolated vertex v added; if v is
// already present, g itself.
func (g *Graph) WithVertex(v Vertex) *Graph {
	if g.HasVertex(v) {
		return g
	}
	return g.insertVertex(v)
}
