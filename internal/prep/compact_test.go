package prep

import (
	"math/rand"
	"testing"

	"klocal/internal/graph"
)

func randomPrepGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for v := 1; v < n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(r.Intn(v)))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

// TestViewCompactMatchesMaps pins the compact-native view to the
// label-space fields of the map-shaped reference preprocessing: next
// hops, routing distances, component membership, constraint sets and
// the dormant set.
func TestViewCompactMatchesMaps(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := randomPrepGraph(r, 2+r.Intn(28))
		vs := g.Vertices()
		u := vs[r.Intn(len(vs))]
		k := 1 + r.Intn(4)
		v := PreprocessStore(g, u, k, PolicyMinRank)
		ref := PreprocessRef(g, u, k, PolicyMinRank)

		h := v.RoutingHalf()
		if v.C.Raw == nil || h.Routing == nil {
			t.Fatal("compact encodings missing")
		}
		for _, tgt := range v.C.Raw.Verts {
			want := ref.Raw.G.NextHopToward(u, tgt)
			if got := v.C.NextHopFromCenter(tgt); got != want {
				t.Fatalf("NextHopFromCenter(%d) = %d want %d (u=%d k=%d)", tgt, got, want, u, k)
			}
		}
		if got := v.C.NextHopFromCenter(graph.Vertex(1 << 40)); got != graph.NoVertex {
			t.Fatalf("NextHopFromCenter outside view = %d want NoVertex", got)
		}

		rcv := h.Routing
		if rcv.NV() != len(ref.RoutingDist) {
			t.Fatalf("compact routing has %d vertices want %d", rcv.NV(), len(ref.RoutingDist))
		}
		for li, w := range rcv.Verts {
			if int(rcv.Dist[li]) != ref.RoutingDist[w] {
				t.Fatalf("routing dist[%d] = %d want %d", w, rcv.Dist[li], ref.RoutingDist[w])
			}
		}

		if len(h.Comps) != len(ref.Comps) {
			t.Fatalf("%d compact comps want %d", len(h.Comps), len(ref.Comps))
		}
		for i, mc := range ref.Comps {
			cc := &h.Comps[i]
			if len(cc.Verts) != len(mc.Vertices) || len(cc.Roots) != len(mc.Roots) || len(cc.Constraints) != len(mc.ConstraintVertices) {
				t.Fatalf("comp %d shape mismatch", i)
			}
			for j, li := range cc.Verts {
				if rcv.Verts[li] != mc.Vertices[j] {
					t.Fatalf("comp %d vertex %d: %d want %d", i, j, rcv.Verts[li], mc.Vertices[j])
				}
				if h.CompIdxOf(li) != int32(i) {
					t.Fatalf("CompIdxOf(%d) = %d want %d", li, h.CompIdxOf(li), i)
				}
			}
			for j, li := range cc.Roots {
				if rcv.Verts[li] != mc.Roots[j] {
					t.Fatalf("comp %d root %d mismatch", i, j)
				}
			}
			for j, li := range cc.Constraints {
				if rcv.Verts[li] != mc.ConstraintVertices[j] {
					t.Fatalf("comp %d constraint %d mismatch", i, j)
				}
			}
			if cc.Active != mc.Active || cc.Independent != mc.Independent || cc.Constrained != mc.Constrained {
				t.Fatalf("comp %d flags mismatch", i)
			}
		}
		if h.CompIdxOf(rcv.CenterIdx) != -1 {
			t.Fatal("centre must have no component")
		}

		for _, e := range ref.Raw.G.Edges() {
			want := false
			for _, d := range ref.Dormant {
				if d == e {
					want = true
					break
				}
			}
			if v.IsDormant(e) != want {
				t.Fatalf("IsDormant(%v) = %v want %v", e, v.IsDormant(e), want)
			}
			if v.IsDormant(graph.Edge{U: e.V, V: e.U}) != want {
				t.Fatalf("IsDormant must normalize orientation for %v", e)
			}
		}
	}
}
