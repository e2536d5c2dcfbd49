package prep

import (
	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// This file is the churn-facing side of the view cache. A topology
// delta on edge {x, y} can change G_k(u) only for u within distance k
// of x or y (the locality theorem read as an invalidation bound —
// internal/churn computes that dirty set); every other cached view is
// still byte-identical on the new topology and must survive.
//
// Derive builds a NEW preprocessor over the post-delta store that
// adopts every surviving view and recomputes only the dirty ones
// lazily. The receiver is left untouched, so in-flight routes keep
// reading a consistent (old graph, old views) pair — the epoch
// isolation klocald's PATCH /graph path relies on.

// Derive returns a preprocessor bound to st — the post-delta topology —
// that adopts every cached view of p except those of dirty vertices.
// Locality, policy and capacity carry over; p is not modified and stays
// fully usable over its own store, so old-epoch readers and the derived
// new epoch never observe a torn (graph, views) pair.
//
// When st indexes vertices as p's store does (an edge delta), the new
// table shares p's pages and copies only the pages that hold a dirty
// vertex's slot: the cost is a directory of n/256 pointers plus those
// pages, whatever n is. A page two epochs share therefore holds no slot
// that a dirty vertex maps to, so whatever either epoch later publishes
// into it is a clean vertex's view, the same on both stores. When st
// re-indexes vertices (an arrival or a removal) or either store is not
// a graph, the surviving views are re-inserted into a fresh table in
// O(n).
func (p *Preprocessor) Derive(st bigraph.Store, dirty []graph.Vertex) *Preprocessor {
	if !sameIndex(p.st, st) {
		np := NewPreprocessor(st, p.k, p.pol, CacheOptions{Capacity: p.capacity})
		np.adopt(p, dirty)
		return np
	}
	// Read Size before any slot: every view it counts is then in the
	// pages shared or copied below, so np's Size never over-counts.
	size := p.Stats().Size
	np := newTable(st, p.k, p.pol, p.capacity)
	copy(np.dir, p.dir)
	for _, w := range dirty {
		i, ok := st.Index(w)
		if !ok {
			continue
		}
		s := np.slot(i)
		j := s >> pageBits
		pg := np.dir[j]
		if pg == p.dir[j] { // still shared: copy it before clearing
			pg = new(viewPage)
			for x := range pg {
				pg[x].Store(p.dir[j][x].Load())
			}
			np.dir[j] = pg
		}
		if v := pg[s&pageMask].Load(); v != nil && v.Center == w {
			pg[s&pageMask].Store(nil)
			size--
		}
	}
	np.stats[0].size.Store(max(size, 0))
	return np
}

// adopt fills np's empty table with p's views of vertices that are
// neither dirty nor absent from np's store, each at its index in np's
// store: the O(n) path of a delta that re-indexes vertices. On a
// bounded cache, views that meet in one slot keep the first.
func (np *Preprocessor) adopt(p *Preprocessor, dirty []graph.Vertex) {
	drop := make(map[graph.Vertex]bool, len(dirty))
	for _, w := range dirty {
		drop[w] = true
	}
	var size int64
	for _, pg := range p.dir {
		for x := range pg {
			v := pg[x].Load()
			if v == nil || drop[v.Center] {
				continue
			}
			i, ok := np.st.Index(v.Center)
			if !ok {
				continue
			}
			s := np.slot(i)
			if slot := &np.dir[s>>pageBits][s&pageMask]; slot.Load() == nil {
				slot.Store(v)
				size++
			}
		}
	}
	np.stats[0].size.Store(size)
}

// sameIndex reports whether a and b are graphs that give every vertex
// the same dense index: equal label arrays, one pointer compare when b
// was spliced from a. Other stores are taken to re-index, which costs
// Derive O(n) and is always correct.
func sameIndex(a, b bigraph.Store) bool {
	ga, ok := a.(*graph.Graph)
	gb, ok2 := b.(*graph.Graph)
	return ok && ok2 && ga.SameLabels(gb)
}
