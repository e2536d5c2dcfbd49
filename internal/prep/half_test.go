package prep_test

import (
	"sync"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// TestConcurrentRoutingHalfFirstUse races eight goroutines on the first
// RoutingHalf call of one fresh view: every caller must get the same
// pointer (the loser of the publication uses the winner's half), and
// that half must equal the reference encoding. make race runs it under
// -race -count=10.
func TestConcurrentRoutingHalfFirstUse(t *testing.T) {
	g := gen.Lollipop(12, 6)
	const k, workers = 4, 8
	for _, u := range g.Vertices() {
		v := prep.PreprocessStore(g, u, k, prep.PolicyMinRank)
		if prep.HasRoutingHalf(v) {
			t.Fatalf("PreprocessStore(%d) built a routing half", u)
		}
		got := make([]*prep.RoutingHalf, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := prep.NewScratch()
				<-start
				got[w] = v.RoutingHalfScratch(sc)
			}()
		}
		close(start)
		wg.Wait()
		for w, h := range got {
			if h != got[0] {
				t.Fatalf("u=%d: goroutine %d got half %p, goroutine 0 got %p", u, w, h, got[0])
			}
		}
		if v.RoutingHalf() != got[0] {
			t.Fatalf("u=%d: a later call returned a different half", u)
		}
		if err := prep.DiffViews(v, prep.PreprocessRef(g, u, k, prep.PolicyMinRank).Encode()); err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
	}
}

// walk routes s→t with f over p's views, calling at with every view it
// hands a decision, and reports the hop count once it delivers; it
// fails the test on a routing error or after limit hops.
func walk(tb testing.TB, p *prep.Preprocessor, f route.Func, s, t graph.Vertex, limit int, at func(view *prep.View)) int {
	tb.Helper()
	sc := prep.NewScratch()
	u, v := s, graph.NoVertex
	hops := 0
	for ; u != t; hops++ {
		if hops == limit {
			tb.Fatalf("%d→%d undelivered after %d hops", s, t, limit)
		}
		view := p.At(u, sc)
		at(view)
		next, err := f(s, t, v, view, sc)
		if err != nil {
			tb.Fatalf("%d→%d at %d: %v", s, t, u, err)
		}
		u, v = next, u
	}
	return hops
}

// TestCaseOneBuildsNoHalf pins the split's point: a decision whose
// destination lies inside G_k(u) reads the Case-1 half alone. Algorithm
// 2 routes every pair within distance k on a k = 3 CSR grid through a
// fresh preprocessor, and no cached view may hold a routing half
// afterwards. A walk whose destination lies outside G_k(u) at some hops
// must then build a half at exactly those vertices.
func TestCaseOneBuildsNoHalf(t *testing.T) {
	const side, k = 9, 3
	csr, err := gen.GridCSR(side, side)
	if err != nil {
		t.Fatal(err)
	}
	p := prep.NewPreprocessor(csr, k, prep.PolicyMinRank, prep.CacheOptions{})
	f := route.Algorithm2().Over(p)
	at := func(r, c int) graph.Vertex { return graph.Vertex(r*side + c) }
	abs := func(x int) int { return max(x, -x) }
	pairs := 0
	for sr := 0; sr < side; sr++ {
		for sc := 0; sc < side; sc++ {
			for tr := 0; tr < side; tr++ {
				for tc := 0; tc < side; tc++ {
					d := abs(sr-tr) + abs(sc-tc)
					if d == 0 || d > k {
						continue
					}
					s, dst := at(sr, sc), at(tr, tc)
					if hops := walk(t, p, f, s, dst, 2*k, func(*prep.View) {}); hops != d {
						t.Fatalf("%d→%d took %d hops, want the distance %d", s, dst, hops, d)
					}
					pairs++
				}
			}
		}
	}
	views := prep.CachedViews(p)
	if len(views) != side*side {
		t.Fatalf("%d pairs cached %d views, want all %d", pairs, len(views), side*side)
	}
	for _, v := range views {
		if prep.HasRoutingHalf(v) {
			t.Fatalf("Case-1 traffic built the routing half at %d", v.Center)
		}
	}

	// Seven hops from the corner: the first decisions find t outside
	// G_k(u), the last k find it inside.
	s, dst := at(0, 0), at(4, 3)
	outside := make(map[graph.Vertex]bool)
	inside := 0
	walk(t, p, f, s, dst, 4*side, func(view *prep.View) {
		if view.C.Raw.Contains(dst) {
			inside++
		} else {
			outside[view.Center] = true
		}
	})
	if len(outside) == 0 || inside == 0 {
		t.Fatalf("walk %d→%d decided %d times outside G_k(u) and %d inside; the test needs both", s, dst, len(outside), inside)
	}
	for _, v := range prep.CachedViews(p) {
		if got := prep.HasRoutingHalf(v); got != outside[v.Center] {
			t.Fatalf("view at %d: routing half built %v, want %v", v.Center, got, outside[v.Center])
		}
	}
}
