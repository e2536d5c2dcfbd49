package klocal_test

import (
	"testing"

	"klocal"
)

// Benchmarks for the churn path (internal/churn, DESIGN.md §15): what a
// single edge flap costs under k-radius invalidation versus rebuilding
// the view cache from scratch. Named BenchmarkEngine* so `make bench`
// folds the comparison into BENCH_engine.json.

const (
	churnGridSide = 100 // n = 10^4 vertices
	churnK        = 3
)

// churnFlap returns the 100x100 grid and the two deltas that flap a
// central edge: each remove is undone by the following add, so the
// topology is valid on every iteration and the dirty set stays the
// k-ball around the same two endpoints.
func churnFlap(b *testing.B) (*klocal.Graph, [2]klocal.TopologyDelta) {
	b.Helper()
	g := klocal.Grid(churnGridSide, churnGridSide)
	u := klocal.Vertex(churnGridSide/2*churnGridSide + churnGridSide/2)
	return g, [2]klocal.TopologyDelta{
		{Op: klocal.RemoveEdge, U: u, V: u + 1},
		{Op: klocal.AddEdge, U: u, V: u + 1},
	}
}

// BenchmarkEngineDeltaApply measures the copy-on-write delta itself:
// splicing the immutable graph's two int32 CSR arrays (one flat
// O(n + m) copy, no hashing, the label index shared) plus the bounded
// BFS that computes the dirty set. dirtyViews/op is the invalidation
// bound the locality theorem promises — O(|B_k(endpoints)|), a constant
// 32 views here, independent of the 10^4-vertex topology.
func BenchmarkEngineDeltaApply(b *testing.B) {
	g, flap := churnFlap(b)
	b.ReportAllocs()
	cur, dirtyTotal := g, 0
	for i := 0; i < b.N; i++ {
		post, dirty, err := klocal.ApplyDelta(cur, flap[i%2], churnK)
		if err != nil {
			b.Fatal(err)
		}
		dirtyTotal += len(dirty)
		cur = post
	}
	b.ReportMetric(float64(dirtyTotal)/float64(b.N), "dirtyViews/op")
	b.ReportMetric(float64(g.N()), "n")
}

// BenchmarkEngineDeltaIncremental is the PATCH /graph fast path: apply
// the delta, derive a cache that adopts every surviving view (sharing
// every view-table page but the few that hold dirty slots), and pay the
// recompute debt for exactly the dirty vertices (steady traffic would
// force those lazily; computing them here makes the comparison with the
// full rebuild honest). Only |B_k| of the 10^4 views are rebuilt per
// flap.
func BenchmarkEngineDeltaIncremental(b *testing.B) {
	g, flap := churnFlap(b)
	pol := klocal.Algorithm2().Policy
	p := klocal.NewPreprocessor(g, churnK, pol, klocal.CacheOptions{})
	p.Prewarm(0)
	cur, dirtyTotal := g, 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		post, dirty, err := klocal.ApplyDelta(cur, flap[i%2], churnK)
		if err != nil {
			b.Fatal(err)
		}
		np := p.Derive(post, dirty)
		for _, u := range dirty {
			np.At(u)
		}
		dirtyTotal += len(dirty)
		cur, p = post, np
	}
	b.ReportMetric(float64(dirtyTotal)/float64(b.N), "dirtyViews/op")
}

// BenchmarkEngineDeltaFullRebuild is the same flap served the naive
// way: throw the cache away and recompute all n views on the new
// topology. The ratio to BenchmarkEngineDeltaIncremental is the
// headline churn number. The rebuild recomputes all n views; the
// incremental path recomputes only |B_k| of them, and its one O(n + m)
// part is churn's flat copy of the graph's two int32 arrays, so the
// ratio widens with n. On a 2-vCPU VM it measured about 100x at
// n = 10^4 (0.21–0.35 ms against 22–24 ms per flap) and 185x at
// n ≈ 10^5 (1.3 ms against 246 ms).
func BenchmarkEngineDeltaFullRebuild(b *testing.B) {
	g, flap := churnFlap(b)
	pol := klocal.Algorithm2().Policy
	cur := g
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		post, _, err := klocal.ApplyDelta(cur, flap[i%2], churnK)
		if err != nil {
			b.Fatal(err)
		}
		np := klocal.NewPreprocessor(post, churnK, pol, klocal.CacheOptions{})
		np.Prewarm(0)
		cur = post
	}
	b.ReportMetric(float64(g.N()), "viewsRebuilt/op")
}
