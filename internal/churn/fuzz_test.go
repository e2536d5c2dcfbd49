package churn

import (
	"errors"
	"testing"

	"klocal/internal/graph"
)

// fuzzLabels is the label range fuzzed delta batches draw from: the
// reserved sentinel, negatives, and a few labels beyond every base
// graph so arrivals happen.
var fuzzLabels = []graph.Vertex{graph.NoVertex, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7}

// fuzzBases are the small graphs a batch applies to: a path, a cycle
// with negative labels, and a single vertex.
var fuzzBases = []*graph.Graph{
	graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	graph.FromEdges([]graph.Edge{{U: -2, V: -1}, {U: -1, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: -2}}),
	graph.FromEdges(nil, 4),
}

// decodeBatch turns fuzz bytes into a base graph, a locality and a
// delta batch: byte 0 picks the base and k, then each 3-byte group is
// one delta (op, u, v). Op bytes past the four known ops decode to an
// unknown op on purpose.
func decodeBatch(data []byte) (*graph.Graph, int, []Delta) {
	if len(data) == 0 {
		return fuzzBases[0], 1, nil
	}
	g := fuzzBases[int(data[0])%len(fuzzBases)]
	k := int(data[0]/8) % 4
	var deltas []Delta
	for i := 1; i+2 < len(data); i += 3 {
		deltas = append(deltas, Delta{
			Op: Op(data[i] % 5),
			U:  fuzzLabels[int(data[i+1])%len(fuzzLabels)],
			V:  fuzzLabels[int(data[i+2])%len(fuzzLabels)],
		})
	}
	return g, k, deltas
}

// applyModel replays an accepted batch on plain vertex and edge sets
// and builds the result from scratch: the oracle for ApplyAll.
func applyModel(g *graph.Graph, deltas []Delta) *graph.Graph {
	verts := make(map[graph.Vertex]bool)
	edges := make(map[graph.Edge]bool)
	g.EachVertex(func(v graph.Vertex) bool { verts[v] = true; return true })
	for _, e := range g.Edges() {
		edges[e] = true
	}
	for _, d := range deltas {
		e := graph.NewEdge(d.U, d.V)
		switch d.Op {
		case AddEdge:
			verts[d.U], verts[d.V], edges[e] = true, true, true
		case RemoveEdge:
			delete(edges, e)
		case AddVertex:
			verts[d.U] = true
		case RemoveVertex:
			delete(verts, d.U)
			for f := range edges {
				if f.U == d.U || f.V == d.U {
					delete(edges, f)
				}
			}
		}
	}
	var es []graph.Edge
	for e := range edges {
		es = append(es, e)
	}
	var vs []graph.Vertex
	for v := range verts {
		vs = append(vs, v)
	}
	return graph.FromEdges(es, vs...)
}

// FuzzApplyAll applies decoded delta batches, the PATCH /graph input
// surface, and checks that nothing panics, every rejection is one of
// churn's typed errors, the input graph is never mutated, and every
// accepted batch yields a graph equal both to its FromEdges rebuild and
// to the set-model oracle, with a dirty set covering every touched
// endpoint.
func FuzzApplyAll(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 1, 4, 6})              // arrival by edge, then a removal
	f.Add([]byte{1, 0, 4, 0, 3, 1, 1})              // the reserved label
	f.Add([]byte{2, 2, 9, 0, 0, 9, 5, 3, 9, 0})     // add-vertex, edge, remove-vertex
	f.Add([]byte{9, 4, 5, 6, 1, 5, 5, 1, 6, 7})     // unknown op, self-loop
	f.Add([]byte{17, 0, 6, 7, 1, 6, 7, 0, 7, 6, 3}) // flap and re-add
	typed := []error{ErrSelfLoop, ErrEdgeExists, ErrEdgeMissing, ErrVertexExists,
		ErrVertexMissing, ErrReservedLabel, errUnknownOp}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, deltas := decodeBatch(data)
		pre := graph.FromEdges(g.Edges(), g.Vertices()...)
		post, dirty, err := ApplyAll(g, deltas, k)
		if !g.Equal(pre) {
			t.Fatalf("ApplyAll(%v) mutated its input graph", deltas)
		}
		if err != nil {
			for _, want := range typed {
				if errors.Is(err, want) {
					if post != nil || dirty != nil {
						t.Fatalf("rejected batch %v returned a graph", deltas)
					}
					return
				}
			}
			t.Fatalf("ApplyAll(%v): untyped error %v", deltas, err)
		}
		if !post.Equal(graph.FromEdges(post.Edges(), post.Vertices()...)) {
			t.Fatalf("ApplyAll(%v) = %v, which differs from its rebuild", deltas, post)
		}
		if want := applyModel(g, deltas); !post.Equal(want) {
			t.Fatalf("ApplyAll(%v) = %v, want %v", deltas, post, want)
		}
		if post.HasVertex(graph.NoVertex) {
			t.Fatalf("ApplyAll(%v) admitted the reserved label", deltas)
		}
		inDirty := make(map[graph.Vertex]bool, len(dirty))
		for i, v := range dirty {
			if i > 0 && dirty[i-1] >= v {
				t.Fatalf("dirty set %v not strictly sorted", dirty)
			}
			inDirty[v] = true
		}
		for _, d := range deltas {
			for _, v := range d.touched() {
				if (g.HasVertex(v) || post.HasVertex(v)) && !inDirty[v] {
					t.Fatalf("ApplyAll(%v): touched vertex %d missing from dirty set %v", deltas, v, dirty)
				}
			}
		}
	})
}
