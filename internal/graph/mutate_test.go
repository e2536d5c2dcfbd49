package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// assertSameGraph checks got against want through every accessor the
// routing stack reads: the label-space API, the int-indexed CSR and
// the scratch BFS. labels is the label range probed for absent
// vertices and non-edges.
func assertSameGraph(t *testing.T, step string, got, want *Graph, labels []Vertex) {
	t.Helper()
	if fmt.Sprint(got.Vertices()) != fmt.Sprint(want.Vertices()) {
		t.Fatalf("%s: vertices %v, want %v", step, got.Vertices(), want.Vertices())
	}
	if fmt.Sprint(got.Edges()) != fmt.Sprint(want.Edges()) {
		t.Fatalf("%s: edges %v, want %v", step, got.Edges(), want.Edges())
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n,m = %d,%d, want %d,%d", step, got.N(), got.M(), want.N(), want.M())
	}
	if !got.Equal(want) {
		t.Fatalf("%s: Equal reports a difference", step)
	}
	gsc, wsc := NewSearchScratch(), NewSearchScratch()
	for _, u := range labels {
		gi, gok := got.Index(u)
		wi, wok := want.Index(u)
		if gi != wi || gok != wok || got.HasVertex(u) != wok {
			t.Fatalf("%s: Index(%d) = %d,%v, want %d,%v", step, u, gi, gok, wi, wok)
		}
		if wok && !slices.Equal(got.Row(gi), want.Row(wi)) {
			t.Fatalf("%s: Row(%d) = %v, want %v", step, gi, got.Row(gi), want.Row(wi))
		}
		if got.Deg(u) != want.Deg(u) || fmt.Sprint(got.Adj(u)) != fmt.Sprint(want.Adj(u)) {
			t.Fatalf("%s: adjacency of %d = %v, want %v", step, u, got.Adj(u), want.Adj(u))
		}
		for _, v := range labels {
			if got.HasEdge(u, v) != want.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v", step, u, v, got.HasEdge(u, v))
			}
			if d, w := got.DistScratch(u, v, gsc), want.DistScratch(u, v, wsc); d != w {
				t.Fatalf("%s: DistScratch(%d,%d) = %d, want %d", step, u, v, d, w)
			}
		}
	}
}

// frozen is a deep copy of a graph's observable state, to check that a
// derivation left its parent untouched.
type frozen struct {
	verts []Vertex
	edges []Edge
	rows  [][]int32
}

func freeze(g *Graph) frozen {
	f := frozen{verts: g.Vertices(), edges: g.Edges()}
	for i := range f.verts {
		f.rows = append(f.rows, slices.Clone(g.Row(int32(i))))
	}
	return f
}

func (f frozen) same(g *Graph) bool {
	if fmt.Sprint(f.verts) != fmt.Sprint(g.Vertices()) || fmt.Sprint(f.edges) != fmt.Sprint(g.Edges()) {
		return false
	}
	for i, row := range f.rows {
		if !slices.Equal(row, g.Row(int32(i))) {
			return false
		}
	}
	return true
}

// model is the set semantics of the four derivations, the oracle the
// copy-on-write graph is checked against.
type model struct {
	verts map[Vertex]bool
	edges map[Edge]bool
}

func modelOf(g *Graph) model {
	m := model{verts: make(map[Vertex]bool), edges: make(map[Edge]bool)}
	for _, v := range g.Vertices() {
		m.verts[v] = true
	}
	for _, e := range g.Edges() {
		m.edges[e] = true
	}
	return m
}

func (m model) graph() *Graph {
	var vs []Vertex
	for v := range m.verts {
		vs = append(vs, v)
	}
	var es []Edge
	for e := range m.edges {
		es = append(es, e)
	}
	return FromEdges(es, vs...)
}

// TestCopyOnWriteMatchesRebuild drives random sequences of the four
// derivations and checks, after every step, that the derived graph
// equals both the from-scratch FromEdges build of its own vertex and
// edge lists and that of the set model, in every accessor, and that
// the parent is unchanged. Labels include negatives, and both splices
// (existing endpoints) and rebuilds (arrivals, departures, edges to
// absent endpoints) occur.
func TestCopyOnWriteMatchesRebuild(t *testing.T) {
	var labels []Vertex
	for v := Vertex(-4); v < 12; v++ {
		labels = append(labels, v)
	}
	pick := func(rng *rand.Rand) Vertex { return labels[rng.Intn(len(labels))] }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if seed%4 == 0 {
			g = &Graph{} // the zero value is the empty graph
		} else {
			g = FromEdges(randomEdges(rng, 8, rng.Intn(14)))
		}
		m := modelOf(g)
		for step := 0; step < 60; step++ {
			before := freeze(g)
			var next *Graph
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				u, v := pick(rng), pick(rng)
				op, next = fmt.Sprintf("WithEdge(%d,%d)", u, v), g.WithEdge(u, v)
				if u != v {
					m.verts[u], m.verts[v], m.edges[NewEdge(u, v)] = true, true, true
				}
			case r < 7 && g.M() > 0:
				e := g.Edges()[rng.Intn(g.M())]
				op, next = fmt.Sprintf("WithoutEdge(%d,%d)", e.V, e.U), g.WithoutEdge(e.V, e.U)
				delete(m.edges, e)
			case r < 8:
				v := pick(rng)
				op, next = fmt.Sprintf("WithVertex(%d)", v), g.WithVertex(v)
				m.verts[v] = true
			default:
				v := pick(rng)
				op, next = fmt.Sprintf("DropVertex(%d)", v), g.DropVertex(v)
				delete(m.verts, v)
				for e := range m.edges {
					if e.U == v || e.V == v {
						delete(m.edges, e)
					}
				}
			}
			name := fmt.Sprintf("seed %d step %d %s", seed, step, op)
			assertSameGraph(t, name, next, FromEdges(next.Edges(), next.Vertices()...), labels)
			assertSameGraph(t, name+" vs model", next, m.graph(), labels)
			if !before.same(g) {
				t.Fatalf("%s: the parent changed", name)
			}
			g = next
		}
	}
}

// TestSpliceSharesLabels pins what makes an edge flap cheap: a
// derivation between existing vertices shares the parent's label array
// and index map instead of rebuilding them.
func TestSpliceSharesLabels(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}, {2, 3}})
	for _, ng := range []*Graph{g.WithEdge(0, 3), g.WithoutEdge(1, 2)} {
		if &ng.verts[0] != &g.verts[0] {
			t.Fatal("splice copied the label array")
		}
		if reflect.ValueOf(ng.index).UnsafePointer() != reflect.ValueOf(g.index).UnsafePointer() {
			t.Fatal("splice rebuilt the index map")
		}
	}
}
