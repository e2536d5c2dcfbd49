package graph

import "sort"

// Infinity is the distance reported between vertices in different
// connected components.
const Infinity = int(^uint(0) >> 1)

// BFS returns the unweighted distance from src to every vertex reachable
// from src. Absent vertices are unreachable.
func (g *Graph) BFS(src Vertex) map[Vertex]int {
	return g.BFSBounded(src, Infinity)
}

// BFSBounded is BFS restricted to vertices within distance maxDepth of
// src. Only reached vertices appear in the result.
func (g *Graph) BFSBounded(src Vertex, maxDepth int) map[Vertex]int {
	dist := make(map[Vertex]int)
	if !g.HasVertex(src) {
		return dist
	}
	dist[src] = 0
	queue := []Vertex{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u]
		if d == maxDepth {
			continue
		}
		for _, j := range g.nbrs(u) {
			w := g.verts[j]
			if _, seen := dist[w]; !seen {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the unweighted graph distance between u and v, or Infinity
// if they are disconnected.
func (g *Graph) Dist(u, v Vertex) int {
	if u == v {
		if g.HasVertex(u) {
			return 0
		}
		return Infinity
	}
	// Bidirectional would be faster; plain BFS keeps the code obvious and
	// is fine at the sizes the experiments use.
	if d, ok := g.BFS(u)[v]; ok {
		return d
	}
	return Infinity
}

// ShortestPath returns a shortest path from u to v as a vertex sequence
// including both endpoints, or nil if disconnected. Among shortest paths
// it returns the lexicographically least by successive neighbour labels,
// so results are deterministic.
func (g *Graph) ShortestPath(u, v Vertex) []Vertex {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return nil
	}
	if u == v {
		return []Vertex{u}
	}
	distToV := g.BFS(v)
	if _, ok := distToV[u]; !ok {
		return nil
	}
	path := []Vertex{u}
	cur := u
	for cur != v {
		// The lowest-labelled neighbour strictly closer to v; adjacency is
		// sorted, so the first hit is the canonical choice.
		next := NoVertex
		for _, j := range g.nbrs(cur) {
			w := g.verts[j]
			if d, ok := distToV[w]; ok && d == distToV[cur]-1 {
				next = w
				break
			}
		}
		cur = next
		path = append(path, cur)
	}
	return path
}

// NextHopToward returns the canonical next hop from u on a shortest path
// to v (the lowest-labelled neighbour that decreases the distance), or
// NoVertex if v is unreachable or u == v.
func (g *Graph) NextHopToward(u, v Vertex) Vertex {
	p := g.ShortestPath(u, v)
	if len(p) < 2 {
		return NoVertex
	}
	return p[1]
}

// Connected reports whether g is connected. The empty graph counts as
// connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.BFS(g.verts[0])) == g.N()
}

// Components returns the vertex sets of the connected components, each
// sorted by label, ordered by their smallest label.
func (g *Graph) Components() [][]Vertex {
	seen := make(map[Vertex]bool, g.N())
	var comps [][]Vertex
	for _, v := range g.verts {
		if seen[v] {
			continue
		}
		reach := g.BFS(v)
		comp := make([]Vertex, 0, len(reach))
		for w := range reach {
			seen[w] = true
			comp = append(comp, w)
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// ComponentOf returns the sorted vertex set of the component containing v,
// or nil if v is absent.
func (g *Graph) ComponentOf(v Vertex) []Vertex {
	if !g.HasVertex(v) {
		return nil
	}
	reach := g.BFS(v)
	comp := make([]Vertex, 0, len(reach))
	for w := range reach {
		comp = append(comp, w)
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return comp
}

// Girth returns the length of the shortest cycle in g, or Infinity if g is
// acyclic, matching the paper's definition.
func (g *Graph) Girth() int {
	best := Infinity
	// Standard BFS-from-every-vertex girth computation: the first non-tree
	// edge closing a cycle through the root bounds the girth.
	for _, root := range g.verts {
		dist := map[Vertex]int{root: 0}
		parent := map[Vertex]Vertex{root: NoVertex}
		queue := []Vertex{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, j := range g.nbrs(u) {
				w := g.verts[j]
				if w == parent[u] {
					continue
				}
				if dw, seen := dist[w]; seen {
					if c := dist[u] + dw + 1; c < best {
						best = c
					}
					continue
				}
				dist[w] = dist[u] + 1
				parent[w] = u
				if 2*dist[w] < best {
					queue = append(queue, w)
				}
			}
		}
	}
	return best
}

// IsTree reports whether g is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.N()-1
}

// HasPathAvoiding reports whether there is a path from u to v of length at
// most maxLen that uses only edges for which allow returns true. It is the
// primitive behind the dormant-edge classification.
func (g *Graph) HasPathAvoiding(u, v Vertex, maxLen int, allow func(Edge) bool) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false
	}
	if u == v {
		return true
	}
	dist := map[Vertex]int{u: 0}
	queue := []Vertex{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] == maxLen {
			continue
		}
		for _, j := range g.nbrs(x) {
			w := g.verts[j]
			if _, seen := dist[w]; seen {
				continue
			}
			if !allow(NewEdge(x, w)) {
				continue
			}
			if w == v {
				return true
			}
			dist[w] = dist[x] + 1
			queue = append(queue, w)
		}
	}
	return false
}
