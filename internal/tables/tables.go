// Package tables implements the classical table-driven routing schemes
// the paper's introduction contrasts k-local routing against (its
// references on universal routing schemes and interval routing): full
// shortest-path tables and interval routing on a spanning tree, both
// with explicit per-node memory accounting.
//
// Two contrasts matter for the paper's story:
//
//   - memory versus dilation: full tables cost Θ(n log n) bits per node
//     for dilation 1; interval routing costs Θ(deg·log n) bits but pays
//     tree stretch; the paper's k-local algorithms "store" their
//     k-neighbourhood — Θ(|G_k(u)|·log n) bits — for dilation ≤ 7/3/1;
//   - labelling freedom: interval routing *renames* the nodes (addresses
//     are DFS numbers), which is precisely what the paper's adversarial
//     label model forbids; the k-local algorithms work under any
//     permutation of labels.
package tables

import (
	"fmt"
	"math"

	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// bitsPerLabel is the address width for a network of n nodes.
func bitsPerLabel(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// FullTables is the centralized scheme: every node stores a next hop for
// every destination.
type FullTables struct {
	g    *graph.Graph
	next map[graph.Vertex]map[graph.Vertex]graph.Vertex
}

// BuildFullTables computes all-pairs next hops (canonical shortest
// paths). It errors on disconnected networks.
func BuildFullTables(g *graph.Graph) (*FullTables, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("tables: network disconnected")
	}
	ft := &FullTables{
		g:    g,
		next: make(map[graph.Vertex]map[graph.Vertex]graph.Vertex, g.N()),
	}
	for _, t := range g.Vertices() {
		distToT := g.BFS(t)
		for _, u := range g.Vertices() {
			if u == t {
				continue
			}
			hop := graph.NoVertex
			g.EachAdj(u, func(w graph.Vertex) bool {
				if distToT[w] == distToT[u]-1 {
					hop = w
					return false
				}
				return true
			})
			if ft.next[u] == nil {
				ft.next[u] = make(map[graph.Vertex]graph.Vertex, g.N()-1)
			}
			ft.next[u][t] = hop
		}
	}
	return ft, nil
}

// BitsAt returns the table memory at node u: one (destination, port)
// entry per other node.
func (ft *FullTables) BitsAt(u graph.Vertex) int {
	return len(ft.next[u]) * 2 * bitsPerLabel(ft.g.N())
}

// MaxBits returns the largest per-node table.
func (ft *FullTables) MaxBits() int {
	max := 0
	for _, u := range ft.g.Vertices() {
		if b := ft.BitsAt(u); b > max {
			max = b
		}
	}
	return max
}

// Algorithm adapts the tables to the routing interface (dilation exactly
// 1 by construction).
func (ft *FullTables) Algorithm() route.Algorithm {
	return route.Algorithm{
		Name:             "FullTables",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(*prep.Preprocessor) route.Func {
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				u := view.Center
				hop, ok := ft.next[u][t]
				if !ok || hop == graph.NoVertex {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("tables: no entry for %d at %d", t, u)
				}
				return hop, nil
			}
		},
	}
}

// TreeInterval is interval routing on a spanning tree (Santoro–Khatib):
// nodes are renamed by DFS numbers; each node stores, per tree port, the
// DFS interval of the subtree behind it.
type TreeInterval struct {
	g    *graph.Graph
	root graph.Vertex

	addr   map[graph.Vertex]int // DFS number
	parent map[graph.Vertex]graph.Vertex
	// sub[v] = [in, out]: the DFS range of v's subtree.
	sub map[graph.Vertex][2]int
	// children[v] in DFS order.
	children map[graph.Vertex][]graph.Vertex
}

// BuildTreeInterval constructs the scheme over a DFS spanning tree rooted
// at root (lowest-label-first traversal). It errors on disconnected
// networks.
func BuildTreeInterval(g *graph.Graph, root graph.Vertex) (*TreeInterval, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("tables: network disconnected")
	}
	if !g.HasVertex(root) {
		return nil, fmt.Errorf("tables: unknown root %d", root)
	}
	ti := &TreeInterval{
		g:        g,
		root:     root,
		addr:     make(map[graph.Vertex]int, g.N()),
		parent:   make(map[graph.Vertex]graph.Vertex, g.N()),
		sub:      make(map[graph.Vertex][2]int, g.N()),
		children: make(map[graph.Vertex][]graph.Vertex, g.N()),
	}
	ti.parent[root] = graph.NoVertex
	counter := 0
	// Iterative DFS with lowest-label-first order.
	type frame struct {
		v    graph.Vertex
		nbrs []graph.Vertex
		i    int
	}
	visited := map[graph.Vertex]bool{root: true}
	ti.addr[root] = counter
	counter++
	stack := []frame{{v: root, nbrs: g.Adj(root)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for f.i < len(f.nbrs) {
			w := f.nbrs[f.i]
			f.i++
			if visited[w] {
				continue
			}
			visited[w] = true
			ti.parent[w] = f.v
			ti.children[f.v] = append(ti.children[f.v], w)
			ti.addr[w] = counter
			counter++
			stack = append(stack, frame{v: w, nbrs: g.Adj(w)})
			advanced = true
			break
		}
		if !advanced {
			v := f.v
			stack = stack[:len(stack)-1]
			out := counter - 1
			ti.sub[v] = [2]int{ti.addr[v], out}
		}
	}
	return ti, nil
}

// Addr returns v's DFS address (the renaming table routing requires).
func (ti *TreeInterval) Addr(v graph.Vertex) int { return ti.addr[v] }

// BitsAt returns the memory at node u: one interval per tree port plus
// its own address — Θ(deg·log n).
func (ti *TreeInterval) BitsAt(u graph.Vertex) int {
	ports := len(ti.children[u])
	if ti.parent[u] != graph.NoVertex {
		ports++
	}
	return (2*ports + 1) * bitsPerLabel(ti.g.N())
}

// MaxBits returns the largest per-node memory.
func (ti *TreeInterval) MaxBits() int {
	max := 0
	for _, u := range ti.g.Vertices() {
		if b := ti.BitsAt(u); b > max {
			max = b
		}
	}
	return max
}

// NextHop routes one step toward t: into the child subtree whose
// interval contains t's address, or to the parent.
func (ti *TreeInterval) NextHop(u, t graph.Vertex) (graph.Vertex, error) {
	if u == t {
		return graph.NoVertex, fmt.Errorf("tables: already at destination")
	}
	at, ok := ti.addr[t]
	if !ok {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("tables: unknown destination %d", t)
	}
	for _, c := range ti.children[u] {
		r := ti.sub[c]
		if at >= r[0] && at <= r[1] {
			return c, nil
		}
	}
	p := ti.parent[u]
	if p == graph.NoVertex {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("tables: address %d outside every subtree of the root", at)
	}
	return p, nil
}

// Algorithm adapts the scheme to the routing interface. Routes follow
// the spanning tree, so the dilation is the tree's stretch.
func (ti *TreeInterval) Algorithm() route.Algorithm {
	return route.Algorithm{
		Name:             "TreeInterval",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(*prep.Preprocessor) route.Func {
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				return ti.NextHop(view.Center, t)
			}
		},
	}
}

// KLocalBits estimates the memory a k-local algorithm implicitly holds at
// u: the vertices and edges of G_k(u), at label width.
func KLocalBits(g *graph.Graph, u graph.Vertex, k int) int {
	dist := g.BFSBounded(u, k)
	edges := 0
	for _, e := range g.Edges() {
		du, okU := dist[e.U]
		dv, okV := dist[e.V]
		if okU && okV && (du < k || dv < k) {
			edges++
		}
	}
	return (len(dist) + 2*edges) * bitsPerLabel(g.N())
}

// TreeStretch returns the worst-case multiplicative stretch of routing
// through ti's spanning tree, over all ordered pairs.
func (ti *TreeInterval) TreeStretch() float64 {
	worst := 1.0
	vs := ti.g.Vertices()
	// Tree distance via lowest common ancestor depths.
	depth := make(map[graph.Vertex]int, len(vs))
	var order []graph.Vertex
	order = append(order, ti.root)
	depth[ti.root] = 0
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, c := range ti.children[v] {
			depth[c] = depth[v] + 1
			order = append(order, c)
		}
	}
	lca := func(a, b graph.Vertex) graph.Vertex {
		for a != b {
			if depth[a] < depth[b] {
				a, b = b, a
			}
			a = ti.parent[a]
		}
		return a
	}
	for i, a := range vs {
		for _, b := range vs[i+1:] {
			l := lca(a, b)
			td := depth[a] + depth[b] - 2*depth[l]
			gd := ti.g.Dist(a, b)
			if gd > 0 {
				if s := float64(td) / float64(gd); s > worst {
					worst = s
				}
			}
		}
	}
	return worst
}
