package cluster

import (
	"fmt"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// soloMember builds a one-shard member owning all of g. Its store holds
// every record from boot, so views build without any discovery.
func soloMember(tb testing.TB, g *graph.Graph, k int) *Member {
	tb.Helper()
	asn, err := NewAssignment(g.Vertices(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	adj := make(map[graph.Vertex][]graph.Vertex, g.N())
	for _, v := range g.Vertices() {
		adj[v] = g.Adj(v)
	}
	m, err := NewMember(Config{K: k, Alg: route.Algorithm2(), SelfAddr: "solo"}, asn, adj, NewLoopTransport())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestColdViewAllocsIndependentOfN is the locality bound as an
// allocation gate: once a member has built its union, a cold owned view
// is one preprocessor miss over G_k(u), so on a k = 3 grid it allocates
// the same count at n = 32² and n = 128². A view path that copies the
// store or rebuilds the union per view allocates in proportion to n.
func TestColdViewAllocsIndependentOfN(t *testing.T) {
	const k = 3
	allocs := func(side int) float64 {
		m := soloMember(t, gen.Grid(side, side), k)
		m.View(0) // builds the union and the preprocessor
		// Interior vertices, whose views all have the same shape.
		var cold []graph.Vertex
		for r := k; r < side-k && len(cold) < 65; r++ {
			for c := k; c < side-k && len(cold) < 65; c++ {
				cold = append(cold, graph.Vertex(r*side+c))
			}
		}
		i := 0
		return testing.AllocsPerRun(len(cold)-1, func() {
			if m.View(cold[i]) == nil {
				t.Fatal("owned view missing")
			}
			i++
		})
	}
	small, big := allocs(32), allocs(128)
	t.Logf("allocs per cold view: n=%d %.0f, n=%d %.0f", 32*32, small, 128*128, big)
	if small != big {
		t.Fatalf("a cold view allocates %.0f times at n=%d but %.0f at n=%d: view building is not k-local",
			small, 32*32, big, 128*128)
	}
}

// BenchmarkMemberViewFill fills every owned view of a one-shard member
// on a k = 3 grid, from a stale union, at growing n. One op is a whole
// fill: one union build plus n views, reported as µs/view, which the
// locality bound keeps flat in n.
func BenchmarkMemberViewFill(b *testing.B) {
	const k = 3
	for _, side := range []int{16, 32, 64, 128} {
		g := gen.Grid(side, side)
		b.Run(fmt.Sprintf("n=%d", g.N()), func(b *testing.B) {
			m := soloMember(b, g, k)
			vs := g.Vertices()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.cur.Store(nil) // the union goes stale, as after any store change with no view cached
				for _, v := range vs {
					m.View(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(vs)), "us/view")
		})
	}
}
