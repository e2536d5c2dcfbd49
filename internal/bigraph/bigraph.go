// Package bigraph is the million-node graph storage subsystem: an
// int-indexed CSR (compressed sparse row) adjacency representation with
// a binary on-disk format that loads via mmap (with a portable
// read-into-memory fallback), a bounded-memory streaming edge-list
// loader, and per-source G_k(u) extraction that walks CSR offsets
// directly into caller-provided scratch buffers — never materializing
// the whole graph as an in-memory graph.Graph.
//
// graph.Graph is a CSR too, but a heap-only one: beside its int32 rows
// it keeps a label array and a label → index hash map (tens of bytes
// per vertex), and it is built from a map-of-maps Builder or a sorted
// edge list held whole in memory. This package's CSR stores a topology
// in its two flat arrays alone (offsets, targets), costs ~12 bytes per
// vertex plus 4 bytes per directed edge, builds in two streaming
// passes, mmaps straight from disk, and extracts neighbourhoods with
// zero steady-state allocations (Scratch + Extract).
//
// Store is the minimal consumer contract. *graph.Graph satisfies it
// as-is, so everything written against Store keeps working on the
// existing in-memory graphs with no adapter code; *CSR satisfies it over
// its label space. See DESIGN.md §12 for the on-disk format and
// route/doc.go for what routing decision paths may ask of a Store.
package bigraph

import "klocal/internal/graph"

// Store is the minimal read-only graph surface the routing stack needs:
// sizes, membership, and sorted adjacency iteration. The contract mirrors
// graph.Graph exactly:
//
//   - vertices are identified by their graph.Vertex label; labels induce
//     the paper's canonical rank order, so EachAdj MUST iterate
//     neighbours in strictly ascending label order — every tie-break in
//     the routing algorithms depends on it;
//   - the topology is an undirected simple graph: HasEdge is symmetric,
//     no self-loops, no parallel edges;
//   - a Store is immutable once published and safe for concurrent
//     readers with no external locking.
type Store interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of (undirected) edges.
	M() int
	// HasVertex reports whether v is a vertex.
	HasVertex(v graph.Vertex) bool
	// Deg returns the degree of v (0 if absent).
	Deg(v graph.Vertex) int
	// EachAdj calls fn for every neighbour of v in ascending label
	// order, stopping early if fn returns false. It must not allocate.
	EachAdj(v graph.Vertex, fn func(w graph.Vertex) bool)
	// EachVertex calls fn for every vertex in ascending label order,
	// stopping early if fn returns false. It must not allocate.
	EachVertex(fn func(v graph.Vertex) bool)
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v graph.Vertex) bool
}

// The in-memory graph substrate is itself a Store: existing call sites
// adapt for free.
var _ Store = (*graph.Graph)(nil)
var _ Store = (*CSR)(nil)
