package prep

import (
	"sync"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// This file is the compact-native preprocessing pipeline behind
// PreprocessStore and View.RoutingHalf. Every stage after the G_k(u)
// extraction runs over the raw view's dense local indices (index order
// is label order). A view is built in two halves, and a full build is
// the two in sequence:
//
//   - the Case-1 half (PreprocessStore, on a cache miss):
//     1. next hops: one centre BFS passing on the minimum first hop;
//     2. encoding: G_k(u) and the next hops copied into flat slices;
//   - the routing half (RoutingHalf, on the first decision that finds
//     t outside G_k(u)), from the view's own C.Raw:
//     3. dormancy: one bounded BFS per edge over rank-filtered arcs
//     (skipped under the zero policy, which has no dormant edges);
//     4. pruning: one centre BFS over the non-dormant arcs builds G'_k(u);
//     5. classification: nbhd.Scratch.Classify on the routing view;
//     6. encoding: the results copied into a few flat slices.
//
// reference.go holds the map-shaped reference pipeline; DiffViews pins
// the two field for field.

// Scratch is a walker's working memory: the view builder its cache
// misses and routing halves run on, and Algorithm 1B's bounce banks. It
// grows to the largest store and view it meets, then allocates
// nothing. Not safe for concurrent use; each walker owns one. sc.View
// holds G_k(u) after extraction and G'_k(u) during classification; the
// banks are indexed by raw local index or raw arc position.
type Scratch struct {
	sc     nbhd.Scratch
	bounce nbhd.BounceScratch

	// dormArc marks the raw arcs whose edge is dormant (both directions);
	// dormant lists the dormant edges as raw local pairs, rank-ordered.
	dormArc []bool
	dormant []int32

	// Epoch-marked BFS bank.
	mark  []uint32
	depth []int32
	queue []int32
	epoch uint32

	// hop is the canonical first hop from the centre (a raw local index,
	// -1 for the centre and for vertices it does not reach).
	hop []int32

	// rdist is the routing distance (-1 when pruned away) and rlocal the
	// routing local index of each raw local index.
	rdist  []int32
	rlocal []int32

	// routing is G'_k(u); its slices alias the buffers below.
	routing   nbhd.CompactView
	rverts    []graph.Vertex
	rdistCol  []int32
	radjStart []int32
	radj      []int32
}

// NewScratch returns an empty scratch; the first build sizes it.
func NewScratch() *Scratch { return &Scratch{} }

// Bounce returns the scratch's bounce-simulation banks.
func (b *Scratch) Bounce() *nbhd.BounceScratch { return &b.bounce }

// shared serves the callers that hold no scratch (PreprocessStore,
// RoutingHalf, At with nil); its mutex serializes them, so no routing
// path may use it.
var shared struct {
	sync.Mutex
	Scratch
}

// acquire returns sc, or the shared scratch, locked, when sc is nil.
func acquire(sc *Scratch) *Scratch {
	if sc == nil {
		shared.Lock()
		sc = &shared.Scratch
	}
	return sc
}

// release hands back a scratch acquire returned.
func release(sc *Scratch) {
	if sc == &shared.Scratch {
		shared.Unlock()
	}
}

// viewBlock co-allocates a view with its raw encoding.
type viewBlock struct {
	view View
	raw  nbhd.CompactView
}

// halfBlock co-allocates a routing half with its routing encoding.
type halfBlock struct {
	half    RoutingHalf
	routing nbhd.CompactView
}

// view builds the Case-1 half of the view at u for locality k under
// policy pol, reading topology through st, and returns it heap-owned.
func (b *Scratch) view(st bigraph.Store, u graph.Vertex, k int, pol Policy) *View {
	if !b.sc.Extract(st, u, k) {
		// Absent centre or negative k: the empty view.
		return emptyView(u, k, pol)
	}
	raw := &b.sc.View
	b.size(raw.NV())
	b.nextHops(raw)
	return b.encodeView(raw, pol)
}

// routingHalf builds the routing half of the view whose G_k(u) is raw
// on b. It reads raw alone.
func (b *Scratch) routingHalf(raw *nbhd.CompactView, pol Policy) *RoutingHalf {
	if raw.NV() == 0 {
		return emptyHalf(raw.Center, raw.K)
	}
	b.size(raw.NV())
	b.sizeArcs(len(raw.Adj))
	if pol != 0 {
		b.classifyDormant(raw, pol == PolicyMaxRank)
	}
	b.prune(raw)
	b.sc.View = b.routing
	b.sc.Classify()
	return b.encodeHalf(raw)
}

// size grows the per-vertex banks to a raw view of nv vertices.
func (b *Scratch) size(nv int) {
	if cap(b.mark) < nv {
		b.mark = make([]uint32, nv)
		b.depth = make([]int32, nv)
		b.hop = make([]int32, nv)
		b.rdist = make([]int32, nv)
		b.rlocal = make([]int32, nv)
		b.epoch = 0
	}
	b.mark = b.mark[:nv]
	b.depth = b.depth[:nv]
	b.hop = b.hop[:nv]
	b.rdist = b.rdist[:nv]
	b.rlocal = b.rlocal[:nv]
}

// sizeArcs grows and clears the dormant-arc bank for a raw view of
// arcs arcs and empties the dormant list, so a reused scratch carries
// no dormant edge into a half built under the zero policy.
func (b *Scratch) sizeArcs(arcs int) {
	if cap(b.dormArc) < arcs {
		b.dormArc = make([]bool, arcs)
	}
	b.dormArc = b.dormArc[:arcs]
	clear(b.dormArc)
	b.dormant = b.dormant[:0]
}

// nextEpoch opens a fresh BFS over the epoch-marked bank.
//
//klocal:hotpath
func (b *Scratch) nextEpoch() {
	b.epoch++
	if b.epoch == 0 { // uint32 wrap: stale marks could alias the new epoch
		clear(b.mark[:cap(b.mark)])
		b.epoch = 1
	}
	b.queue = b.queue[:0]
}

// classifyDormant marks the dormant edges of the raw view cv under the
// package's dormancy rule: edge {a, c} (a < c) is dormant when cv joins
// a and c by a path of at most 2k−1 edges that all lie beyond {a, c} in
// the policy's rank order. Edges are visited in rank order (a ascending,
// rows ascending), so b.dormant comes out rank-ordered.
//
//klocal:hotpath
func (b *Scratch) classifyDormant(cv *nbhd.CompactView, maxRank bool) {
	maxLen := 2*cv.K - 1
	for a := int32(0); a < int32(cv.NV()); a++ {
		start := cv.AdjStart[a]
		for p, c := range cv.Row(a) {
			if c < a || !b.pathBeyond(cv, a, c, maxLen, maxRank) {
				continue
			}
			b.dormArc[start+int32(p)] = true
			b.dormArc[arcOf(cv, c, a)] = true
			b.dormant = append(b.dormant, a, c)
		}
	}
}

// pathBeyond reports whether cv joins a and c (a < c) by a path of at
// most maxLen edges, each beyond {a, c} in the policy's rank order: one
// BFS from a, bounded at maxLen, over the rank-filtered arcs.
//
//klocal:hotpath
func (b *Scratch) pathBeyond(cv *nbhd.CompactView, a, c, maxLen int32, maxRank bool) bool {
	b.nextEpoch()
	b.mark[a] = b.epoch
	b.depth[a] = 0
	b.queue = append(b.queue, a)
	for h := 0; h < len(b.queue); h++ {
		x := b.queue[h]
		d := b.depth[x]
		if d >= maxLen {
			continue
		}
		for _, y := range cv.Row(x) {
			if b.mark[y] == b.epoch || !beyond(x, y, a, c, maxRank) {
				continue
			}
			if y == c {
				return true
			}
			b.mark[y] = b.epoch
			b.depth[y] = d + 1
			b.queue = append(b.queue, y)
		}
	}
	return false
}

// beyond reports whether edge {x, y} lies strictly beyond {a, c} (a < c)
// in the policy's rank order: above it for the minimum-rank policy,
// below it for the maximum-rank one. Local index order is label order,
// so edge rank is a lexicographic compare of normalized local endpoints.
//
//klocal:hotpath
func beyond(x, y, a, c int32, maxRank bool) bool {
	if x > y {
		x, y = y, x
	}
	if maxRank {
		return x < a || (x == a && y < c)
	}
	return x > a || (x == a && y > c)
}

// arcOf returns the position in cv.Adj of the arc x→y (binary search in
// x's ascending row).
//
//klocal:hotpath
func arcOf(cv *nbhd.CompactView, x, y int32) int32 {
	lo, hi := cv.AdjStart[x], cv.AdjStart[x+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if cv.Adj[mid] < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nextHops fills b.hop with the first hop of the canonical shortest path
// from the centre to every raw local index: the lowest-labelled
// neighbour of the centre on any shortest path. One centre BFS passes
// each vertex the minimum first hop over its predecessors; they all sit
// one level closer and are dequeued before it, so a vertex's hop is
// final before it hands it on.
//
//klocal:hotpath
func (b *Scratch) nextHops(cv *nbhd.CompactView) {
	for i := range b.hop {
		b.hop[i] = -1
	}
	b.nextEpoch()
	ci := cv.CenterIdx
	b.mark[ci] = b.epoch
	b.queue = append(b.queue, ci)
	for h := 0; h < len(b.queue); h++ {
		x := b.queue[h]
		for _, y := range cv.Row(x) {
			first := b.hop[x]
			if x == ci {
				first = y
			}
			if b.mark[y] != b.epoch {
				b.mark[y] = b.epoch
				b.hop[y] = first
				b.queue = append(b.queue, y)
			} else if cv.Dist[y] == cv.Dist[x]+1 && first < b.hop[y] {
				b.hop[y] = first
			}
		}
	}
}

// prune builds G'_k(u) from the raw view cv into b.routing: one centre
// BFS over the non-dormant arcs, bounded at k, then Extract's edge rule
// on the routing distances — an edge survives when its nearer endpoint
// lies within k−1 of the centre. Reached vertices keep their raw order,
// so the routing encoding is label-ordered too.
//
//klocal:hotpath
func (b *Scratch) prune(cv *nbhd.CompactView) {
	k := cv.K
	for i := range b.rdist {
		b.rdist[i] = -1
	}
	ci := cv.CenterIdx
	b.rdist[ci] = 0
	b.queue = b.queue[:0]
	b.queue = append(b.queue, ci)
	for h := 0; h < len(b.queue); h++ {
		x := b.queue[h]
		d := b.rdist[x]
		if d >= k {
			continue
		}
		start := cv.AdjStart[x]
		for p, y := range cv.Row(x) {
			if b.rdist[y] < 0 && !b.dormArc[start+int32(p)] {
				b.rdist[y] = d + 1
				b.queue = append(b.queue, y)
			}
		}
	}
	b.rverts = b.rverts[:0]
	b.rdistCol = b.rdistCol[:0]
	for i, d := range b.rdist {
		if d >= 0 {
			b.rlocal[i] = int32(len(b.rverts))
			b.rverts = append(b.rverts, cv.Verts[i])
			b.rdistCol = append(b.rdistCol, d)
		}
	}
	b.radjStart = b.radjStart[:0]
	b.radj = b.radj[:0]
	for i, di := range b.rdist {
		if di < 0 {
			continue
		}
		b.radjStart = append(b.radjStart, int32(len(b.radj)))
		start := cv.AdjStart[i]
		for p, y := range cv.Row(int32(i)) {
			dy := b.rdist[y]
			if dy < 0 || b.dormArc[start+int32(p)] || (di >= k && dy >= k) {
				continue
			}
			b.radj = append(b.radj, b.rlocal[y])
		}
	}
	b.radjStart = append(b.radjStart, int32(len(b.radj)))
	b.routing = nbhd.CompactView{
		Center:    cv.Center,
		CenterIdx: b.rlocal[ci],
		K:         k,
		Verts:     b.rverts,
		Dist:      b.rdistCol,
		AdjStart:  b.radjStart,
		Adj:       b.radj,
	}
}

// encodeView copies the raw view and the next hops into a heap-owned
// view: one block for the view and its raw encoding, one int32 arena
// and one vertex arena.
func (b *Scratch) encodeView(raw *nbhd.CompactView, pol Policy) *View {
	nv := raw.NV()
	ints := make([]int32, 0, 2*nv+1+len(raw.Adj))
	verts := make([]graph.Vertex, 0, 2*nv)

	blk := &viewBlock{}
	v := &blk.view
	v.Center, v.K, v.pol = raw.Center, int(raw.K), pol
	blk.raw = nbhd.CompactView{
		Center:    raw.Center,
		CenterIdx: raw.CenterIdx,
		K:         raw.K,
		Verts:     take(&verts, raw.Verts),
		Dist:      take(&ints, raw.Dist),
		AdjStart:  take(&ints, raw.AdjStart),
		Adj:       take(&ints, raw.Adj),
		Complete:  raw.Complete,
	}
	v.C.Raw = &blk.raw
	n := len(verts)
	for _, h := range b.hop {
		if h < 0 {
			verts = append(verts, graph.NoVertex)
		} else {
			verts = append(verts, raw.Verts[h])
		}
	}
	v.C.NextHop = verts[n:len(verts):len(verts)]
	return v
}

// encodeHalf copies the routing view (b.sc.View), its classification
// (b.sc.Comps) and the dormant edges of raw into a heap-owned routing
// half: one block for the half and its routing encoding, one int32
// arena, one vertex arena, the component list and the dormant edges.
func (b *Scratch) encodeHalf(raw *nbhd.CompactView) *RoutingHalf {
	rt := &b.sc.View
	comps := b.sc.Comps
	rnv := rt.NV()
	nInts := 3*rnv + 1 + len(rt.Adj)
	nVerts := rnv
	for i := range comps {
		cc := &comps[i]
		nInts += len(cc.Verts) + len(cc.Roots) + len(cc.Constraints)
		if cc.Active {
			nVerts += len(cc.Roots)
		}
	}
	ints := make([]int32, 0, nInts)
	verts := make([]graph.Vertex, 0, nVerts)

	blk := &halfBlock{}
	h := &blk.half
	blk.routing = nbhd.CompactView{
		Center:    rt.Center,
		CenterIdx: rt.CenterIdx,
		K:         rt.K,
		Verts:     take(&verts, rt.Verts),
		Dist:      take(&ints, rt.Dist),
		AdjStart:  take(&ints, rt.AdjStart),
		Adj:       take(&ints, rt.Adj),
	}
	h.Routing = &blk.routing
	n := len(ints)
	for i := 0; i < rnv; i++ {
		ints = append(ints, -1)
	}
	h.CompID = ints[n:len(ints):len(ints)]
	h.Comps = make([]nbhd.CompactComponent, len(comps))
	for i := range comps {
		cc := &comps[i]
		h.Comps[i] = nbhd.CompactComponent{
			Verts:       take(&ints, cc.Verts),
			Roots:       take(&ints, cc.Roots),
			Constraints: take(&ints, cc.Constraints),
			Active:      cc.Active,
			Independent: cc.Independent,
			Constrained: cc.Constrained,
		}
		for _, li := range cc.Verts {
			h.CompID[li] = int32(i)
		}
	}
	// Every neighbour of the centre roots its component, and the centre's
	// row is ascending, so the active roots come out rank-ordered.
	n = len(verts)
	for _, r := range rt.Row(rt.CenterIdx) {
		if comps[h.CompID[r]].Active {
			verts = append(verts, rt.Verts[r])
		}
	}
	h.ActiveRoots = verts[n:len(verts):len(verts)]

	if len(b.dormant) > 0 {
		h.Dormant = make([]graph.Edge, len(b.dormant)/2)
		for i := range h.Dormant {
			h.Dormant[i] = graph.Edge{U: raw.Verts[b.dormant[2*i]], V: raw.Verts[b.dormant[2*i+1]]}
		}
	}
	return h
}

// take appends src to an arena preallocated to its final size and
// returns the appended run, capped so that no later append reaches it.
func take[T any](arena *[]T, src []T) []T {
	n := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[n:len(*arena):len(*arena)]
}

// emptyView is the view of an absent centre (or a negative locality):
// no vertices, no next hops, and complete, as no vertex is reachable.
func emptyView(u graph.Vertex, k int, pol Policy) *View {
	blk := &viewBlock{}
	blk.raw = nbhd.CompactView{Center: u, K: int32(k), Complete: true}
	v := &blk.view
	v.Center, v.K, v.pol = u, k, pol
	v.C.Raw = &blk.raw
	return v
}

// emptyHalf is the routing half of an empty view: no vertices, no
// components, no active roots.
func emptyHalf(u graph.Vertex, k int32) *RoutingHalf {
	blk := &halfBlock{}
	blk.routing = nbhd.CompactView{Center: u, K: k}
	blk.half.Routing = &blk.routing
	return &blk.half
}
