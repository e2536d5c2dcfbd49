package route

import (
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
)

// TestLemma1CircularPermutation checks the forcing lemma directly
// against our implementation: at a node u whose local components are all
// independent active components, with s and t outside G_k(u), the local
// routing function v ↦ f(s, t, u, v) of a successful algorithm must be a
// circular permutation of Adj(u). We build spider instances realizing
// exactly those conditions (hub degree 2 and 3, the degrees
// Proposition 1 allows) and verify Algorithms 1, 1B and 2 comply.
func TestLemma1CircularPermutation(t *testing.T) {
	for _, arms := range []int{2, 3} {
		armLen := 6
		k := 3 // arms reach the horizon; s and t invisible from the hub
		// Extend two arms with s and t beyond the horizon: the spider's
		// arm ends are 1+i*armLen .. (i+1)*armLen; attach s to arm 0's
		// end and t to arm (arms-1)'s end.
		b := graph.NewBuilder()
		sp := gen.Spider(arms, armLen)
		for _, e := range sp.Edges() {
			b.AddEdge(e.U, e.V)
		}
		s := graph.Vertex(1000)
		dst := graph.Vertex(1001)
		b.AddEdge(graph.Vertex(armLen), s)        // end of arm 0
		b.AddEdge(graph.Vertex(arms*armLen), dst) // end of last arm
		g := b.Build()
		hub := graph.Vertex(0)

		algs := []Algorithm{Algorithm1(), Algorithm1B()}
		if arms <= 2 {
			// Algorithm 2's rules cover active degree ≤ 2 (Proposition 2
			// holds at its threshold); the degree-3 hub is Algorithm 1
			// territory.
			algs = append(algs, Algorithm2())
		}
		for _, alg := range algs {
			p := prep.NewPreprocessor(g, k, alg.Policy, prep.CacheOptions{})
			f, sc := alg.Over(p), prep.NewScratch()
			view := p.At(hub, sc)
			adj := g.Adj(hub)
			succ := make(map[graph.Vertex]graph.Vertex, len(adj))
			for _, v := range adj {
				next, err := f(s, dst, v, view, sc)
				if err != nil {
					t.Fatalf("%s arms=%d: f(hub, from %d): %v", alg.Name, arms, v, err)
				}
				succ[v] = next
			}
			// Surjective over Adj(u) (case 1 of Lemma 1's proof).
			image := make(map[graph.Vertex]bool)
			for _, w := range succ {
				image[w] = true
			}
			if len(image) != len(adj) {
				t.Fatalf("%s arms=%d: local function not a permutation: %v", alg.Name, arms, succ)
			}
			// Derangement (case 2).
			for v, w := range succ {
				if v == w {
					t.Fatalf("%s arms=%d: fixed point at %d", alg.Name, arms, v)
				}
			}
			// Single cycle (case 3).
			start := adj[0]
			seen := 1
			for cur := succ[start]; cur != start; cur = succ[cur] {
				seen++
				if seen > len(adj) {
					t.Fatalf("%s arms=%d: successor walk does not close: %v", alg.Name, arms, succ)
				}
			}
			if seen != len(adj) {
				t.Fatalf("%s arms=%d: %d-cycle in a degree-%d hub: %v", alg.Name, arms, seen, len(adj), succ)
			}
		}
	}
}
