package nbhd

import (
	"slices"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// This file is the int-indexed twin of the map-based neighbourhood
// machinery: a CompactView encodes G_k(u) (or any view graph) in a dense
// local index space built into caller-owned scratch, and classification
// runs over flat arrays — component membership as index ranges, the
// constraint vertices of every component from a single dominator-tree
// pass over the shortest-path DAG instead of one
// remove-vertex-and-re-BFS per candidate. Routing decision paths read
// these encodings with binary searches and array loads only; equivalence
// with the map-based path is pinned by the compact differential tests
// and the klocalcheck "compact" property.

// CompactView is a view graph in a dense local index space: local index
// i is vertex Verts[i], Verts ascending, so local index order and label
// order coincide and every canonical rank tie-break survives the
// translation. Adjacency rows are ascending local indices.
type CompactView struct {
	Center graph.Vertex
	// CenterIdx is the centre's local index.
	CenterIdx int32
	// K is the knowledge radius the view was built at.
	K int32
	// Verts holds the vertex labels, ascending.
	Verts []graph.Vertex
	// Dist holds the distance from the centre inside the view, parallel
	// to Verts; -1 for vertices unreachable from the centre.
	Dist []int32
	// AdjStart/Adj are the CSR adjacency over local indices: vertex i's
	// neighbours are Adj[AdjStart[i]:AdjStart[i+1]], ascending.
	AdjStart []int32
	Adj      []int32
	// Complete reports that no vertex sits at distance K or beyond: the
	// centre's whole component is inside the view, so a vertex absent
	// from it is unreachable. Extraction and FromView record it from
	// their last-visited vertex, since their walks visit in distance
	// order; a view assembled by hand leaves it false.
	Complete bool
}

// NV returns the number of vertices in the view.
func (cv *CompactView) NV() int { return len(cv.Verts) }

// Index resolves a vertex label to its local index, reporting presence.
// Hand-rolled binary search: sort.Search's closure would allocate, and
// this sits under every per-hop decision.
//
//klocal:hotpath
func (cv *CompactView) Index(v graph.Vertex) (int32, bool) {
	lo, hi := 0, len(cv.Verts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cv.Verts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cv.Verts) && cv.Verts[lo] == v {
		return int32(lo), true
	}
	return 0, false
}

// Contains reports whether v is in the view.
//
//klocal:hotpath
func (cv *CompactView) Contains(v graph.Vertex) bool {
	_, ok := cv.Index(v)
	return ok
}

// Row returns the ascending local-index neighbours of local index i.
//
//klocal:hotpath
func (cv *CompactView) Row(i int32) []int32 {
	return cv.Adj[cv.AdjStart[i]:cv.AdjStart[i+1]]
}

// Clone returns a heap-owned deep copy that stays valid after the
// scratch it was built in is reused.
func (cv *CompactView) Clone() *CompactView {
	out := &CompactView{Center: cv.Center, CenterIdx: cv.CenterIdx, K: cv.K, Complete: cv.Complete}
	out.Verts = append([]graph.Vertex(nil), cv.Verts...)
	out.Dist = append([]int32(nil), cv.Dist...)
	out.AdjStart = append([]int32(nil), cv.AdjStart...)
	out.Adj = append([]int32(nil), cv.Adj...)
	return out
}

// CompactComponent is a local component of the compact view: a connected
// component of view\{center} in local index space, classified exactly as
// nbhd.Component. The index slices alias the owning Scratch and stay
// valid until its next extraction or classification.
type CompactComponent struct {
	// Verts are the member local indices, ascending.
	Verts []int32
	// Roots are the centre's neighbours inside the component, ascending.
	Roots []int32
	// Constraints are the constraint vertices (local indices, ascending);
	// empty for passive or unconstrained components.
	Constraints []int32
	Active      bool
	Independent bool
	Constrained bool
}

// Has reports whether local index v belongs to the component.
//
//klocal:hotpath
func (c *CompactComponent) Has(v int32) bool {
	lo, hi := 0, len(c.Verts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Verts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.Verts) && c.Verts[lo] == v
}

// Scratch is the caller-owned working memory for compact extraction and
// classification. It grows to the largest graph and view it has seen and
// is then reused without allocating, so per-route hot paths extract and
// classify views with zero steady-state allocations (pinned by
// TestCompactScratchAllocs). A Scratch is not safe for concurrent use;
// give each worker its own.
type Scratch struct {
	// View is the last extracted view; its slices alias scratch buffers.
	View CompactView
	// Comps is the last Classify result, ordered by lowest root label;
	// slices alias scratch buffers.
	Comps []CompactComponent

	// Global-index state for extraction, the one array sized by the
	// store: gslot[v] is 0 for a global index v the walk has not
	// reached, its BFS position + 1 during the walk, and its local
	// index + 1 once the reached set is sorted. Extraction zeroes the
	// slots it touched before it returns.
	gslot []int32
	// gorder is the BFS discovery order (global indices) and doubles as
	// the queue; gdist holds the distances parallel to it, in visit
	// order.
	gorder []int32
	gdist  []int32

	// Backing buffers for View.
	verts    []graph.Vertex
	dist     []int32
	adjStart []int32
	adj      []int32

	// Classification state, all over local indices. compVerts/compRoots/
	// compCons hold all components' members/roots/constraints
	// back-to-back; vOff/rOff/cOff are the per-component boundaries
	// (sliced into CompactComponent at the end, once the buffers stop
	// growing).
	compID    []int32
	compVerts []int32
	compRoots []int32
	compCons  []int32
	vOff      []int32
	rOff      []int32
	cOff      []int32
	idom      []int32
	tdepth    []int32
	horizon   []int32
	lcaPre    []int32
	lcaSuf    []int32

	// Secondary epoch-marked arrays over local indices, used by the
	// component/dominator BFS passes and the per-target BFS of
	// NextHopToward.
	mark2  []uint32
	dist2  []int32
	queue2 []int32
	epoch2 uint32
}

// NewScratch returns an empty compact scratch; the first extraction
// sizes it.
func NewScratch() *Scratch { return &Scratch{} }

// beginGlobal readies the global slot array for n vertices; every slot
// is already zero.
func (sc *Scratch) beginGlobal(n int) {
	if len(sc.gslot) < n {
		sc.gslot = make([]int32, n)
	}
	sc.gorder = sc.gorder[:0]
	sc.gdist = sc.gdist[:0]
}

// visit records global index gi as reached at distance d.
//
//klocal:hotpath
func (sc *Scratch) visit(gi, d int32) {
	sc.gorder = append(sc.gorder, gi)
	sc.gdist = append(sc.gdist, d)
	sc.gslot[gi] = int32(len(sc.gorder))
}

// endGlobal zeroes the slots of every reached global index, through the
// visit list, so the next extraction starts from an all-zero array.
//
//klocal:hotpath
func (sc *Scratch) endGlobal() {
	for _, gi := range sc.gorder {
		sc.gslot[gi] = 0
	}
}

// begin2 readies the secondary epoch arrays for nv local vertices.
func (sc *Scratch) begin2(nv int) {
	if len(sc.mark2) < nv {
		sc.mark2 = make([]uint32, nv)
		sc.dist2 = make([]int32, nv)
		sc.epoch2 = 0
	}
	sc.epoch2++
	if sc.epoch2 == 0 {
		clear(sc.mark2)
		sc.epoch2 = 1
	}
	sc.queue2 = sc.queue2[:0]
}

// Extract computes G_k(u) into sc from any store: graph- and CSR-backed
// stores are walked row by row straight into local index space
// (extractGraph, extractCSR); any other store goes through the
// label-space Extract first. It reports false when u is absent or k is
// negative (the empty view). Preprocessing and Algorithm 3 both extract
// through it.
//
//klocal:hotpath
func (sc *Scratch) Extract(st bigraph.Store, u graph.Vertex, k int) bool {
	switch s := st.(type) {
	case *graph.Graph:
		return sc.extractGraph(s, u, k)
	case *bigraph.CSR:
		return sc.extractCSR(s, u, k)
	default:
		return k >= 0 && sc.FromView(Extract(st, u, k).G, u, k)
	}
}

// extractGraph computes G_k(u) into sc from a full graph via its CSR
// rows: the vertices within distance k of u, and the edges whose
// nearer endpoint is within distance k−1 — exactly Extract's rule (the
// compact differential tests pin the equivalence). It reports false when
// u is absent or k is negative (the empty view).
//
//klocal:hotpath
func (sc *Scratch) extractGraph(g *graph.Graph, u graph.Vertex, k int) bool {
	root, ok := g.Index(u)
	if !ok || k < 0 {
		return false
	}
	sc.beginGlobal(g.N())
	sc.visit(root, 0)
	for head := 0; head < len(sc.gorder); head++ {
		d := sc.gdist[head]
		if int(d) >= k {
			break // the queue is in distance order: the rest is horizon
		}
		for _, y := range g.Row(sc.gorder[head]) {
			if sc.gslot[y] == 0 {
				sc.visit(y, d+1)
			}
		}
	}
	// Graph indices are positions in the sorted vertex order, so
	// sorting the discovery set ascending yields ascending labels.
	slices.Sort(sc.gorder)
	sc.verts = sc.verts[:0]
	sc.dist = sc.dist[:0]
	for li, gi := range sc.gorder {
		sc.verts = append(sc.verts, g.VertexAt(gi))
		sc.localize(li, gi)
	}
	sc.setView(u, k, sc.gdist[len(sc.gdist)-1] < int32(k))
	sc.adjStart = sc.adjStart[:0]
	sc.adj = sc.adj[:0]
	for li, gi := range sc.gorder {
		sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
		sc.keepEdges(sc.dist[li], g.Row(gi), k)
	}
	sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
	sc.View.AdjStart = sc.adjStart
	sc.View.Adj = sc.adj
	sc.endGlobal()
	return true
}

// extractCSR is extractGraph over a CSR store; CSR indices are
// label-ordered too, so the same local-space construction applies.
//
//klocal:hotpath
func (sc *Scratch) extractCSR(c *bigraph.CSR, u graph.Vertex, k int) bool {
	root, ok := c.Index(u)
	if !ok || k < 0 {
		return false
	}
	sc.beginGlobal(c.N())
	sc.visit(root, 0)
	for head := 0; head < len(sc.gorder); head++ {
		d := sc.gdist[head]
		if int(d) >= k {
			break
		}
		for _, y := range c.Row(sc.gorder[head]) {
			if sc.gslot[y] == 0 {
				sc.visit(y, d+1)
			}
		}
	}
	slices.Sort(sc.gorder)
	sc.verts = sc.verts[:0]
	sc.dist = sc.dist[:0]
	for li, gi := range sc.gorder {
		sc.verts = append(sc.verts, c.Label(gi))
		sc.localize(li, gi)
	}
	sc.setView(u, k, sc.gdist[len(sc.gdist)-1] < int32(k))
	sc.adjStart = sc.adjStart[:0]
	sc.adj = sc.adj[:0]
	for li, gi := range sc.gorder {
		sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
		sc.keepEdges(sc.dist[li], c.Row(gi), k)
	}
	sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
	sc.View.AdjStart = sc.adjStart
	sc.View.Adj = sc.adj
	sc.endGlobal()
	return true
}

// localize moves reached global index gi, at position li of the sorted
// reached set, into local space: sc.dist receives its distance, and its
// slot turns from BFS position + 1 into local index + 1.
//
//klocal:hotpath
func (sc *Scratch) localize(li int, gi int32) {
	sc.dist = append(sc.dist, sc.gdist[sc.gslot[gi]-1])
	sc.gslot[gi] = int32(li) + 1
}

// keepEdges appends to sc.adj the local indices of the row's reached
// neighbours under Extract's edge rule: an edge survives when its nearer
// endpoint lies within k−1 of the centre. di is the row owner's
// distance. Rows are ascending global indices, and local order is
// global order, so the appended run is ascending too.
//
//klocal:hotpath
func (sc *Scratch) keepEdges(di int32, row []int32, k int) {
	for _, gy := range row {
		s := sc.gslot[gy]
		if s == 0 {
			continue
		}
		if ly := s - 1; int(di) < k || int(sc.dist[ly]) < k {
			sc.adj = append(sc.adj, ly)
		}
	}
}

// setView publishes the verts/dist buffers into sc.View, resolves the
// centre index and records whether the view is complete.
func (sc *Scratch) setView(u graph.Vertex, k int, complete bool) {
	cv := &sc.View
	cv.Center = u
	cv.K = int32(k)
	cv.Complete = complete
	cv.Verts = sc.verts
	cv.Dist = sc.dist
	ci, _ := cv.Index(u)
	cv.CenterIdx = ci
}

// FromView encodes an arbitrary view graph around a centre with
// knowledge radius k — the ClassifyView contract: every vertex and every
// edge of the view is kept, distances are measured inside the view
// (−1 for vertices unreachable from the centre). The local space is the
// whole view, so the walk needs no global array.
func (sc *Scratch) FromView(view *graph.Graph, center graph.Vertex, k int) bool {
	root, ok := view.Index(center)
	if !ok {
		return false
	}
	n := view.N()
	// Local index == mirror index (both ascending by label).
	sc.verts = sc.verts[:0]
	sc.dist = sc.dist[:0]
	for i := 0; i < n; i++ {
		sc.verts = append(sc.verts, view.VertexAt(int32(i)))
		sc.dist = append(sc.dist, -1)
	}
	sc.dist[root] = 0
	sc.gorder = append(sc.gorder[:0], root)
	for head := 0; head < len(sc.gorder); head++ {
		x := sc.gorder[head]
		for _, y := range view.Row(x) {
			if sc.dist[y] < 0 {
				sc.dist[y] = sc.dist[x] + 1
				sc.gorder = append(sc.gorder, y)
			}
		}
	}
	sc.setView(center, k, sc.dist[sc.gorder[len(sc.gorder)-1]] < int32(k))
	// Full adjacency copy: FromView keeps all view edges.
	sc.adjStart = sc.adjStart[:0]
	sc.adj = sc.adj[:0]
	for i := 0; i < n; i++ {
		sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
		sc.adj = append(sc.adj, view.Row(int32(i))...)
	}
	sc.adjStart = append(sc.adjStart, int32(len(sc.adj)))
	sc.View.AdjStart = sc.adjStart
	sc.View.Adj = sc.adj
	return true
}

// Classify computes the local components of the current view into
// sc.Comps, classified exactly as the map-based classify (ordering,
// roots, active/independent/constrained flags and constraint vertices) —
// the compact differential tests pin the equivalence. Constraint
// vertices come from one dominator-tree pass over the shortest-path DAG
// from the centre instead of a remove-and-re-BFS per candidate: w lies
// on every shortest centre→z path iff w dominates z, so the common
// constraint vertices of a horizon set H are the dominator-tree
// ancestors of LCA(H) (plus LCA(H) itself), and a horizon vertex w
// additionally qualifies when it is an ancestor-or-self of LCA(H\{w})
// (prefix/suffix LCA arrays make that O(|H|) tree climbs).
//
//klocal:hotpath
func (sc *Scratch) Classify() {
	cv := &sc.View
	nv := cv.NV()
	sc.sizeClassify(nv)
	sc.Comps = sc.Comps[:0]
	sc.compVerts = sc.compVerts[:0]
	sc.compRoots = sc.compRoots[:0]
	sc.compCons = sc.compCons[:0]
	sc.vOff = sc.vOff[:0]
	sc.rOff = sc.rOff[:0]
	sc.cOff = sc.cOff[:0]
	if nv == 0 {
		return
	}
	center := cv.CenterIdx

	// Pass 1: connected components of view\{center}, seeded from the
	// centre's row in ascending order — so components come out ordered by
	// their lowest root, and rootless components (unreachable debris in
	// malformed views) are never materialized, matching classify.
	sc.begin2(nv)
	sc.mark2[center] = sc.epoch2 // BFS never enters the centre
	ncomp := int32(0)
	sc.vOff = append(sc.vOff, 0)
	for _, r := range cv.Row(center) {
		if sc.mark2[r] == sc.epoch2 {
			continue
		}
		segStart := len(sc.compVerts)
		sc.mark2[r] = sc.epoch2
		sc.compID[r] = ncomp
		sc.compVerts = append(sc.compVerts, r)
		for head := segStart; head < len(sc.compVerts); head++ {
			x := sc.compVerts[head]
			for _, y := range cv.Row(x) {
				if sc.mark2[y] != sc.epoch2 {
					sc.mark2[y] = sc.epoch2
					sc.compID[y] = ncomp
					sc.compVerts = append(sc.compVerts, y)
				}
			}
		}
		slices.Sort(sc.compVerts[segStart:])
		sc.vOff = append(sc.vOff, int32(len(sc.compVerts)))
		ncomp++
	}

	// Pass 2: dominator tree of the shortest-path DAG from the centre.
	// idom[v] folds NCA over v's predecessors (neighbours one step
	// closer); BFS order guarantees predecessors are finished first.
	sc.begin2(nv)
	sc.mark2[center] = sc.epoch2
	sc.dist2[center] = 0
	sc.queue2 = append(sc.queue2, center)
	sc.idom[center] = center
	sc.tdepth[center] = 0
	for head := 0; head < len(sc.queue2); head++ {
		x := sc.queue2[head]
		d := sc.dist2[x]
		for _, y := range cv.Row(x) {
			if sc.mark2[y] != sc.epoch2 {
				sc.mark2[y] = sc.epoch2
				sc.dist2[y] = d + 1
				sc.queue2 = append(sc.queue2, y)
			}
		}
	}
	for _, v := range sc.queue2[1:] {
		dv := sc.dist2[v]
		a := int32(-1)
		for _, x := range cv.Row(v) {
			if sc.mark2[x] == sc.epoch2 && sc.dist2[x] == dv-1 {
				if a < 0 {
					a = x
				} else {
					a = sc.nca(a, x)
				}
			}
		}
		sc.idom[v] = a
		sc.tdepth[v] = sc.tdepth[a] + 1
	}

	// Pass 3: per-component roots, horizon, constraints. The component
	// member segments are sorted, so horizons come out ascending.
	for ci := int32(0); ci < ncomp; ci++ {
		sc.rOff = append(sc.rOff, int32(len(sc.compRoots)))
		for _, r := range cv.Row(center) {
			if sc.compID[r] == ci {
				sc.compRoots = append(sc.compRoots, r)
			}
		}
		cStart := len(sc.compCons)
		sc.cOff = append(sc.cOff, int32(cStart))
		sc.horizon = sc.horizon[:0]
		for _, v := range sc.compVerts[sc.vOff[ci]:sc.vOff[ci+1]] {
			if cv.Dist[v] == cv.K {
				sc.horizon = append(sc.horizon, v)
			}
		}
		if len(sc.horizon) > 0 {
			sc.constraints(center)
			slices.Sort(sc.compCons[cStart:])
		}
	}
	sc.rOff = append(sc.rOff, int32(len(sc.compRoots)))
	sc.cOff = append(sc.cOff, int32(len(sc.compCons)))

	// Materialize: the buffers have stopped growing, so subslices are
	// stable until the next Classify.
	for ci := int32(0); ci < ncomp; ci++ {
		hzn := false
		for _, v := range sc.compVerts[sc.vOff[ci]:sc.vOff[ci+1]] {
			if cv.Dist[v] == cv.K {
				hzn = true
				break
			}
		}
		cons := sc.compCons[sc.cOff[ci]:sc.cOff[ci+1]]
		roots := sc.compRoots[sc.rOff[ci]:sc.rOff[ci+1]]
		sc.Comps = append(sc.Comps, CompactComponent{
			Verts:       sc.compVerts[sc.vOff[ci]:sc.vOff[ci+1]],
			Roots:       roots,
			Constraints: cons,
			Active:      hzn,
			Independent: len(roots) == 1,
			Constrained: hzn && len(cons) > 0,
		})
	}
}

// constraints appends the current component's constraint vertices
// (unsorted) to sc.compCons. sc.horizon holds the component's horizon
// set ascending; idom/tdepth hold the dominator pass.
func (sc *Scratch) constraints(center int32) {
	h := sc.horizon
	// Prefix/suffix LCAs over the horizon in dominator-tree terms.
	sc.lcaPre = sc.lcaPre[:0]
	sc.lcaSuf = sc.lcaSuf[:0]
	a := h[0]
	for _, z := range h {
		a = sc.nca(a, z)
		sc.lcaPre = append(sc.lcaPre, a)
	}
	b := h[len(h)-1]
	for i := len(h) - 1; i >= 0; i-- {
		b = sc.nca(b, h[i])
		sc.lcaSuf = append(sc.lcaSuf, b) // lcaSuf[j] covers h[len(h)-1-j:]
	}
	all := sc.lcaPre[len(h)-1]

	// Every dominator-tree ancestor of LCA(H) (and LCA(H) itself), centre
	// excluded, lies on all shortest centre→z paths for all z ∈ H.
	for v := all; v != center; v = sc.idom[v] {
		sc.compCons = append(sc.compCons, v)
	}

	// A horizon vertex w additionally qualifies when it dominates the
	// rest of the horizon: w ancestor-or-self of LCA(H\{w}). With |H|=1
	// that set is empty and w qualifies vacuously (only the centre is
	// excluded by the paper). Skip w already on the LCA(H) root path to
	// avoid duplicates.
	for i, w := range h {
		if w != center && sc.domAncestor(w, all) {
			continue // already emitted on the root path
		}
		qualifies := len(h) == 1
		if !qualifies {
			rest := int32(-1)
			if i > 0 {
				rest = sc.lcaPre[i-1]
			}
			if i < len(h)-1 {
				s := sc.lcaSuf[len(h)-2-i]
				if rest < 0 {
					rest = s
				} else {
					rest = sc.nca(rest, s)
				}
			}
			qualifies = rest >= 0 && sc.domAncestor(w, rest)
		}
		if qualifies {
			sc.compCons = append(sc.compCons, w)
		}
	}
}

// nca returns the nearest common ancestor of a and b in the dominator
// tree (idom/tdepth from the last Classify pass).
//
//klocal:hotpath
func (sc *Scratch) nca(a, b int32) int32 {
	for sc.tdepth[a] > sc.tdepth[b] {
		a = sc.idom[a]
	}
	for sc.tdepth[b] > sc.tdepth[a] {
		b = sc.idom[b]
	}
	for a != b {
		a = sc.idom[a]
		b = sc.idom[b]
	}
	return a
}

// domAncestor reports whether w is an ancestor-or-self of v in the
// dominator tree.
//
//klocal:hotpath
func (sc *Scratch) domAncestor(w, v int32) bool {
	for sc.tdepth[v] > sc.tdepth[w] {
		v = sc.idom[v]
	}
	return v == w
}

// sizeClassify grows the per-local-index classification arrays to nv.
func (sc *Scratch) sizeClassify(nv int) {
	if len(sc.compID) < nv {
		sc.compID = make([]int32, nv)
		sc.idom = make([]int32, nv)
		sc.tdepth = make([]int32, nv)
	}
}

// NextHopToward returns the canonical next hop (local index) from local
// vertex `from` on a shortest path inside the view to local vertex `to`:
// the lowest-labelled neighbour of `from` that decreases the distance to
// `to`, exactly graph.NextHopToward over the same view. It returns −1
// when `to` is unreachable from `from` or from == to.
//
//klocal:hotpath
func (sc *Scratch) NextHopToward(from, to int32) int32 {
	if from == to {
		return -1
	}
	cv := &sc.View
	sc.begin2(cv.NV())
	sc.mark2[to] = sc.epoch2
	sc.dist2[to] = 0
	sc.queue2 = append(sc.queue2, to)
	df := int32(-1)
	for head := 0; head < len(sc.queue2) && df < 0; head++ {
		x := sc.queue2[head]
		d := sc.dist2[x]
		for _, y := range cv.Row(x) {
			if sc.mark2[y] == sc.epoch2 {
				continue
			}
			sc.mark2[y] = sc.epoch2
			sc.dist2[y] = d + 1
			sc.queue2 = append(sc.queue2, y)
			if y == from {
				df = d + 1
			}
		}
	}
	if df < 0 {
		return -1
	}
	// Rows are ascending, so the first neighbour strictly closer to `to`
	// is the canonical (lowest-labelled) choice. All neighbours of `from`
	// at distance df−1 from `to` are marked: BFS fully expanded depth
	// df−1 before discovering `from` at depth df.
	for _, w := range cv.Row(from) {
		if sc.mark2[w] == sc.epoch2 && sc.dist2[w] == df-1 {
			return w
		}
	}
	return -1
}
