package nbhd

import (
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

func randomGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for v := 1; v < n; v++ {
		b.AddEdge(graph.Vertex(v*3), graph.Vertex(r.Intn(v)*3)) // sparse labels
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)*3), graph.Vertex(r.Intn(n)*3))
	}
	return b.Build()
}

// checkViewMatches compares a compact view against a reference
// Neighborhood: same vertex set, distances, and edge set, and complete
// exactly when no reference distance reaches the radius.
func checkViewMatches(t *testing.T, cv *CompactView, nb *Neighborhood) {
	t.Helper()
	if cv.NV() != len(nb.Dist) {
		t.Fatalf("view size %d want %d", cv.NV(), len(nb.Dist))
	}
	complete := true
	for _, d := range nb.Dist {
		complete = complete && d < int(cv.K)
	}
	if cv.Complete != complete {
		t.Fatalf("view of %d at k=%d: Complete = %v, want %v", nb.Center, cv.K, cv.Complete, complete)
	}
	for li, v := range cv.Verts {
		d, ok := nb.Dist[v]
		if !ok {
			t.Fatalf("compact view has stray vertex %d", v)
		}
		if int(cv.Dist[li]) != d {
			t.Fatalf("dist[%d] = %d want %d", v, cv.Dist[li], d)
		}
		if li > 0 && cv.Verts[li-1] >= v {
			t.Fatalf("Verts not strictly ascending at %d", li)
		}
	}
	if cv.Verts[cv.CenterIdx] != nb.Center {
		t.Fatalf("CenterIdx resolves to %d want %d", cv.Verts[cv.CenterIdx], nb.Center)
	}
	edges := 0
	for li := range cv.Verts {
		row := cv.Row(int32(li))
		for p, wj := range row {
			if p > 0 && row[p-1] >= wj {
				t.Fatalf("row of %d not strictly ascending", cv.Verts[li])
			}
			if !nb.G.HasEdge(cv.Verts[li], cv.Verts[wj]) {
				t.Fatalf("stray compact edge {%d,%d}", cv.Verts[li], cv.Verts[wj])
			}
		}
		edges += len(row)
	}
	if edges != 2*nb.G.M() {
		t.Fatalf("compact view has %d arcs, want %d", edges, 2*nb.G.M())
	}
}

// opaqueStore hides a store's concrete type from Scratch.Extract's
// dispatch, forcing its generic label-space branch.
type opaqueStore struct{ bigraph.Store }

// TestExtractCompactMatchesExtract pins all three branches of
// Scratch.Extract — the graph and CSR row walks and the generic store
// path — to the map-based Extract on random graphs.
func TestExtractCompactMatchesExtract(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sc := NewScratch()
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 2+r.Intn(40))
		vs := g.Vertices()
		u := vs[r.Intn(len(vs))]
		k := r.Intn(5)
		nb := Extract(g, u, k)
		c := bigraph.FromGraph(g)
		for _, st := range []bigraph.Store{g, c, opaqueStore{c}} {
			if !sc.Extract(st, u, k) {
				t.Fatalf("Extract(%T, %d, %d) reported absent centre", st, u, k)
			}
			checkViewMatches(t, &sc.View, nb)
		}
	}
	g := randomGraph(r, 5)
	for _, st := range []bigraph.Store{g, bigraph.FromGraph(g), opaqueStore{g}} {
		if sc.Extract(st, graph.Vertex(1<<40), 2) {
			t.Fatalf("Extract(%T) accepted absent centre", st)
		}
	}
}

// TestClassifyMatchesRef pins the dominator-based compact classification
// to the remove-and-re-BFS reference on random views, through the public
// label-space API (classify routes through the compact path).
func TestClassifyMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(r, 2+r.Intn(36))
		vs := g.Vertices()
		u := vs[r.Intn(len(vs))]
		k := 1 + r.Intn(4)
		nb := Extract(g, u, k)
		got := ClassifyView(nb.G, u, k)
		want := ClassifyViewRef(nb.G, u, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d components, want %d (u=%d k=%d g=%v)", trial, len(got), len(want), u, k, g)
		}
		for i := range want {
			gc, wc := got[i], want[i]
			if !vertsEqual(gc.Vertices, wc.Vertices) {
				t.Fatalf("trial %d comp %d: vertices %v want %v", trial, i, gc.Vertices, wc.Vertices)
			}
			if !vertsEqual(gc.Roots, wc.Roots) {
				t.Fatalf("trial %d comp %d: roots %v want %v", trial, i, gc.Roots, wc.Roots)
			}
			if gc.Active != wc.Active || gc.Independent != wc.Independent || gc.Constrained != wc.Constrained {
				t.Fatalf("trial %d comp %d: flags %v/%v/%v want %v/%v/%v (u=%d k=%d g=%v)",
					trial, i, gc.Active, gc.Independent, gc.Constrained, wc.Active, wc.Independent, wc.Constrained, u, k, g)
			}
			if !vertsEqual(gc.ConstraintVertices, wc.ConstraintVertices) {
				t.Fatalf("trial %d comp %d: constraints %v want %v (u=%d k=%d g=%v)",
					trial, i, gc.ConstraintVertices, wc.ConstraintVertices, u, k, g)
			}
		}
	}
}

func vertsEqual(a, b []graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompactNextHopMatchesGraph pins the scratch next-hop against the
// canonical graph.NextHopToward inside random views.
func TestCompactNextHopMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sc := NewScratch()
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(30))
		vs := g.Vertices()
		u := vs[r.Intn(len(vs))]
		k := 1 + r.Intn(4)
		nb := Extract(g, u, k)
		if !sc.Extract(g, u, k) {
			t.Fatal("Extract failed")
		}
		cv := &sc.View
		for _, tgt := range cv.Verts {
			want := nb.G.NextHopToward(u, tgt)
			ti, _ := cv.Index(tgt)
			hop := sc.NextHopToward(cv.CenterIdx, ti)
			got := graph.NoVertex
			if hop >= 0 {
				got = cv.Verts[hop]
			}
			if got != want {
				t.Fatalf("NextHopToward(%d,%d) = %d want %d", u, tgt, got, want)
			}
		}
	}
}

// TestCompactScratchAllocs pins the zero-steady-state-allocation contract
// of extraction, classification, and next-hop lookup.
func TestCompactScratchAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	g := randomGraph(r, 64)
	vs := g.Vertices()
	u := vs[len(vs)/2]
	sc := NewScratch()
	// Size the scratch and build the graph's CSR mirror.
	sc.Extract(g, u, 3)
	sc.Classify()
	avg := testing.AllocsPerRun(200, func() {
		sc.Extract(g, u, 3)
		sc.Classify()
		sc.NextHopToward(sc.View.CenterIdx, int32(sc.View.NV()-1))
	})
	if avg != 0 {
		t.Fatalf("compact extract+classify allocates %v/op in steady state, want 0", avg)
	}
}

// slotsClear reports whether the scratch's global slot array is all
// zero, which every extraction must leave it.
func slotsClear(sc *Scratch) bool {
	for _, s := range sc.gslot {
		if s != 0 {
			return false
		}
	}
	return true
}

// TestExtractLeavesSlotsZero pins the slot array's contract: whatever
// an extraction reached, it zeroes again before returning, so the next
// extraction needs no clearing pass. Covers the graph and CSR walks,
// an absent centre, k = 0 and FromView (through the generic branch).
func TestExtractLeavesSlotsZero(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	g := randomGraph(r, 60)
	c := bigraph.FromGraph(g)
	vs := g.Vertices()
	sc := NewScratch()
	cases := []struct {
		name string
		st   bigraph.Store
		u    graph.Vertex
		k    int
		ok   bool
	}{
		{"graph", g, vs[7], 3, true},
		{"csr", c, vs[11], 4, true},
		{"graph/k=0", g, vs[3], 0, true},
		{"csr/k=0", c, vs[3], 0, true},
		{"graph/absent", g, graph.Vertex(1 << 40), 2, false},
		{"csr/absent", c, graph.Vertex(1 << 40), 2, false},
		{"fromview", opaqueStore{g}, vs[5], 3, true},
	}
	for _, tc := range cases {
		if got := sc.Extract(tc.st, tc.u, tc.k); got != tc.ok {
			t.Fatalf("%s: Extract reported %v, want %v", tc.name, got, tc.ok)
		}
		if !slotsClear(sc) {
			t.Fatalf("%s: extraction left non-zero slots", tc.name)
		}
		if tc.ok {
			checkViewMatches(t, &sc.View, Extract(g, tc.u, tc.k))
		}
	}
	if !sc.FromView(Extract(g, vs[9], 2).G, vs[9], 2) || !slotsClear(sc) {
		t.Fatal("FromView left non-zero slots")
	}
	if len(sc.gslot) < g.N() {
		t.Fatalf("slot array holds %d slots for %d vertices", len(sc.gslot), g.N())
	}
}
