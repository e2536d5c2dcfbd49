package bigraph

import (
	"fmt"

	"klocal/internal/graph"
)

// Scratch is the caller-owned working memory for Extract: the output
// arrays (Verts/Dists/Edges) and the epoch-marked visited state. A
// Scratch grows to the size of the largest graph it has seen and is then
// reused without allocating — the per-route hot path extracts views with
// zero steady-state allocations (pinned by TestExtractAllocs). A Scratch
// is not safe for concurrent use; give each worker its own.
type Scratch struct {
	// Verts lists the view's vertex indices in BFS discovery order
	// (which is distance order, ties in ascending index order).
	Verts []int32
	// Dists holds the distance from the centre, parallel to Verts.
	Dists []int32
	// Edges lists the view's edges as normalized (lo, hi) index pairs.
	Edges [][2]int32

	// mark[v] == epoch means v was reached this extraction; dist[v] is
	// then its distance. Epochs make clearing O(1) instead of O(n).
	mark  []uint32
	dist  []int32
	epoch uint32
}

// NewScratch returns an empty scratch; the first Extract sizes it.
func NewScratch() *Scratch { return &Scratch{} }

// begin readies the scratch for a graph of n vertices.
//
//klocal:hotpath
func (sc *Scratch) begin(n int) {
	if len(sc.mark) < n {
		//klocal:allow grows once to the largest graph seen, then reused; steady state pinned by TestExtractAllocs
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
	sc.Verts = sc.Verts[:0]
	sc.Dists = sc.Dists[:0]
	sc.Edges = sc.Edges[:0]
}

// seen reports whether index v was reached this extraction.
func (sc *Scratch) seen(v int32) bool { return sc.mark[v] == sc.epoch }

// DistOf returns index v's distance from the centre, valid only for
// vertices reached by the last Extract.
func (sc *Scratch) DistOf(v int32) int32 { return sc.dist[v] }

// Contains reports whether index v is in the last extracted view.
func (sc *Scratch) Contains(v int32) bool {
	return int(v) < len(sc.mark) && sc.seen(v)
}

// Extract computes G_k(u) into sc by walking CSR offsets directly: the
// vertices within distance k of u, and the edges whose nearer endpoint
// is within distance k−1 — exactly nbhd.Extract's rule (the klocalcheck
// "csr" property pins the equivalence). The full graph is never
// materialized; the only writes are into sc.
//
//klocal:hotpath
func (c *CSR) Extract(u graph.Vertex, k int, sc *Scratch) error {
	root, ok := c.Index(u)
	if !ok {
		//klocal:allow cold error path: fires only on a caller contract violation, never on the measured route
		return fmt.Errorf("bigraph: extract: vertex %d not in graph", u)
	}
	if k < 0 {
		//klocal:allow cold error path: fires only on a caller contract violation, never on the measured route
		return fmt.Errorf("bigraph: extract: negative locality %d", k)
	}
	sc.begin(c.N())
	sc.mark[root] = sc.epoch
	sc.dist[root] = 0
	sc.Verts = append(sc.Verts, root)
	sc.Dists = append(sc.Dists, 0)
	// BFS; Verts doubles as the queue. Rows are sorted, so discovery
	// order (and thus Verts) is deterministic.
	for head := 0; head < len(sc.Verts); head++ {
		x, d := sc.Verts[head], sc.Dists[head]
		if int(d) >= k {
			continue // horizon vertices do not expand
		}
		for _, y := range c.Row(x) {
			if !sc.seen(y) {
				sc.mark[y] = sc.epoch
				sc.dist[y] = d + 1
				sc.Verts = append(sc.Verts, y)
				sc.Dists = append(sc.Dists, d+1)
			}
		}
	}
	// Edge rule: {x, y} belongs to G_k(u) iff both endpoints are in the
	// view and min(dist) < k. Iterating only x with dist < k and
	// emitting on (x < y) or (dist[y] == k) yields each such edge
	// exactly once: pairs with both distances < k are claimed by the
	// smaller index; pairs touching the horizon are claimed by the
	// interior endpoint (the horizon endpoint never iterates).
	for idx := range sc.Verts {
		x, d := sc.Verts[idx], sc.Dists[idx]
		if int(d) >= k {
			continue
		}
		for _, y := range c.Row(x) {
			if !sc.seen(y) {
				continue
			}
			if y > x {
				sc.Edges = append(sc.Edges, [2]int32{x, y})
			} else if int(sc.dist[y]) == k {
				sc.Edges = append(sc.Edges, [2]int32{y, x})
			}
		}
	}
	return nil
}
