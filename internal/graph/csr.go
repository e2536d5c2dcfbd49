package graph

// This file is the int-indexed face of Graph: the CSR arrays read
// directly, by dense vertex index (a vertex's position in label order).
// The arrays are built eagerly by every constructor and derivation, so
// there is no lazily built state: a graph derived copy-on-write
// (mutate.go) is ready for Row and DistScratch the moment it exists.

// Index resolves a vertex label to its dense index (its position in the
// sorted vertex order), reporting presence. It is one hash lookup: Index
// sits under every label-space accessor and every per-hop accessor of
// the compact routing structures.
//
//klocal:hotpath
func (g *Graph) Index(v Vertex) (int32, bool) {
	i, ok := g.index[v]
	return i, ok
}

// VertexAt returns the label of dense index i (inverse of Index).
//
//klocal:hotpath
func (g *Graph) VertexAt(i int32) Vertex { return g.verts[i] }

// Row returns the neighbours of dense index i as dense indices, sorted
// ascending. The slice aliases the graph; callers must not mutate it.
//
//klocal:hotpath
func (g *Graph) Row(i int32) []int32 {
	return g.to[g.start[i]:g.start[i+1]:g.start[i+1]]
}

// SearchScratch is caller-owned working memory for the int-indexed
// search primitives (DistScratch, BFSIndexed): an epoch-marked visited
// array, a distance array and a queue, all sized to the largest graph
// seen and then reused without allocating. Not safe for concurrent use;
// give each worker its own.
type SearchScratch struct {
	mark  []uint32
	dist  []int32
	queue []int32
	epoch uint32
}

// NewSearchScratch returns an empty scratch; the first search sizes it.
func NewSearchScratch() *SearchScratch { return &SearchScratch{} }

// begin readies the scratch for a graph of n vertices.
//
//klocal:hotpath
func (sc *SearchScratch) begin(n int) {
	if len(sc.mark) < n {
		//klocal:allow grows once to the largest graph seen, then reused; steady state pinned by TestSearchScratchAllocs
		sc.mark = make([]uint32, n)
		//klocal:allow same growth-once path as mark above
		sc.dist = make([]int32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: all marks are stale garbage
		clear(sc.mark)
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
}

// seen reports whether index v was reached this search.
func (sc *SearchScratch) seen(v int32) bool { return sc.mark[v] == sc.epoch }

// visit marks index v reached at distance d and enqueues it.
//
//klocal:hotpath
func (sc *SearchScratch) visit(v, d int32) {
	sc.mark[v] = sc.epoch
	sc.dist[v] = d
	sc.queue = append(sc.queue, v)
}

// DistScratch returns the unweighted graph distance between u and v
// (Infinity if disconnected), allocating only into sc. It is
// Dist-identical: same BFS, int-indexed.
//
//klocal:hotpath
func (g *Graph) DistScratch(u, v Vertex, sc *SearchScratch) int {
	ui, uok := g.Index(u)
	vi, vok := g.Index(v)
	if !uok || !vok {
		return Infinity
	}
	if ui == vi {
		return 0
	}
	sc.begin(len(g.verts))
	sc.visit(ui, 0)
	for head := 0; head < len(sc.queue); head++ {
		x := sc.queue[head]
		d := sc.dist[x]
		for _, y := range g.Row(x) {
			if sc.seen(y) {
				continue
			}
			if y == vi {
				return int(d) + 1
			}
			sc.visit(y, d+1)
		}
	}
	return Infinity
}
