package prep

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// sameViewData compares the routing-relevant content of two views.
func sameViewData(a, b *View) bool { return DiffViews(a, b) == nil }

// TestDeriveExact pins which views a derivation drops and which it
// adopts: exactly the dirty ones are recomputed, every clean one is
// adopted by pointer, and the parent keeps all of its views.
func TestDeriveExact(t *testing.T) {
	g := gen.Grid(8, 8)
	k := 2
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})
	p.Prewarm(4)
	total := p.Stats().Size
	if total != int64(g.N()) {
		t.Fatalf("prewarm cached %d views, want %d", total, g.N())
	}
	before := make(map[graph.Vertex]*View)
	g.EachVertex(func(u graph.Vertex) bool {
		before[u] = p.At(u, nil)
		return true
	})

	e := g.Edges()[g.M()/3]
	post, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
	if err != nil {
		t.Fatal(err)
	}
	np := p.Derive(post, dirty)
	if got, want := np.Stats().Size, total-int64(len(dirty)); got != want {
		t.Fatalf("derived cache holds %d views, want %d (all dirty were resident)", got, want)
	}
	if got := p.Stats().Size; got != total {
		t.Fatalf("parent holds %d views after Derive, want %d", got, total)
	}

	isDirty := make(map[graph.Vertex]bool)
	for _, u := range dirty {
		isDirty[u] = true
	}
	g.EachVertex(func(u graph.Vertex) bool {
		v := np.At(u, nil)
		if isDirty[u] {
			if v == before[u] {
				t.Fatalf("dirty vertex %d still served its old view", u)
			}
		} else if v != before[u] {
			t.Fatalf("clean vertex %d lost its cached view", u)
		}
		if p.At(u, nil) != before[u] {
			t.Fatalf("parent lost its view at %d", u)
		}
		return true
	})

	// np now holds its recomputed dirty views in copied pages and the
	// adopted ones in pages it shares with p. Deriving again over the
	// same topology with the same dirty set drops the same count; an
	// empty dirty set drops nothing.
	if got, want := np.Derive(post, dirty).Stats().Size, total-int64(len(dirty)); got != want {
		t.Fatalf("second Derive kept %d views, want %d", got, want)
	}
	if got := np.Derive(post, nil).Stats().Size; got != total {
		t.Fatalf("Derive(nil) kept %d views, want %d", got, total)
	}
}

// TestDeriveKeepsRoutingHalf: the routing half depends on G_k(u) alone,
// so a clean view that Derive adopts keeps its half by pointer, while a
// dirty view is rebuilt as a Case-1 half and builds its routing half on
// first use, over the post-delta topology.
func TestDeriveKeepsRoutingHalf(t *testing.T) {
	g := gen.Grid(8, 8)
	k := 2
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})
	p.Prewarm(2)
	halves := make(map[graph.Vertex]*RoutingHalf)
	g.EachVertex(func(u graph.Vertex) bool {
		if HasRoutingHalf(p.At(u, nil)) {
			t.Fatalf("Prewarm built the routing half at %d", u)
		}
		halves[u] = p.At(u, nil).RoutingHalf()
		return true
	})

	e := g.Edges()[g.M()/2]
	post, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
	if err != nil {
		t.Fatal(err)
	}
	np := p.Derive(post, dirty)
	isDirty := make(map[graph.Vertex]bool)
	for _, u := range dirty {
		isDirty[u] = true
	}
	g.EachVertex(func(u graph.Vertex) bool {
		v := np.At(u, nil)
		if !isDirty[u] {
			if !HasRoutingHalf(v) || v.RoutingHalf() != halves[u] {
				t.Fatalf("clean vertex %d lost its routing half", u)
			}
			return true
		}
		if HasRoutingHalf(v) {
			t.Fatalf("rebuilt dirty view at %d already holds a routing half", u)
		}
		if err := DiffViews(v, PreprocessRef(post, u, k, PolicyMinRank).Encode()); err != nil {
			t.Fatalf("rebuilt dirty view at %d: %v", u, err)
		}
		if v.RoutingHalf() == halves[u] {
			t.Fatalf("rebuilt dirty view at %d shares the old epoch's routing half", u)
		}
		return true
	})
}

func TestDeriveEpochIsolation(t *testing.T) {
	g := gen.Grid(7, 7)
	k := 2
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})
	p.Prewarm(4)

	d := churn.Delta{Op: churn.RemoveEdge, U: g.Edges()[0].U, V: g.Edges()[0].V}
	post, dirty, err := churn.Apply(g, d, k)
	if err != nil {
		t.Fatal(err)
	}
	np := p.Derive(post, dirty)
	if np.Store() != post {
		t.Fatal("derived preprocessor not bound to the post graph")
	}
	if np.K() != k || np.Policy() != p.Policy() {
		t.Fatal("derived preprocessor lost tuning")
	}
	if got, want := np.Stats().Size, int64(g.N()-len(dirty)); got != want {
		t.Fatalf("derived cache adopted %d views, want %d", got, want)
	}

	isDirty := make(map[graph.Vertex]bool)
	for _, u := range dirty {
		isDirty[u] = true
	}
	post.EachVertex(func(u graph.Vertex) bool {
		nv := np.At(u, nil)
		if isDirty[u] {
			if nv == p.At(u, nil) {
				t.Fatalf("dirty vertex %d shares a view across epochs", u)
			}
			if want := PreprocessStore(post, u, k, p.Policy()); !sameViewData(nv, want) {
				t.Fatalf("derived view at dirty vertex %d differs from from-scratch view", u)
			}
		} else if nv != p.At(u, nil) {
			t.Fatalf("clean vertex %d did not adopt the old epoch's view", u)
		}
		return true
	})

	// The old epoch is untouched: every old view still matches a fresh
	// computation over the OLD graph.
	g.EachVertex(func(u graph.Vertex) bool {
		if !sameViewData(p.At(u, nil), PreprocessStore(g, u, k, p.Policy())) {
			t.Fatalf("old epoch view at %d corrupted by Derive", u)
		}
		return true
	})
}

func TestDeriveBoundedCache(t *testing.T) {
	g := gen.Cycle(24)
	p := NewPreprocessor(g, 2, PolicyMinRank, CacheOptions{Capacity: 10})
	p.Prewarm(2)
	d := churn.Delta{Op: churn.RemoveEdge, U: 0, V: 1}
	post, dirty, err := churn.Apply(g, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	np := p.Derive(post, dirty)
	if got := np.Stats().Size; got > 10 {
		t.Fatalf("derived bounded cache holds %d views, capacity 10", got)
	}
	// Filling the derived cache keeps it within capacity exactly.
	post.EachVertex(func(u graph.Vertex) bool {
		np.At(u, nil)
		if got := np.Stats().Size; got > 10 {
			t.Fatalf("bounded cache grew to %d views after adoption", got)
		}
		return true
	})
	if got := len(CachedViews(np)); got > 10 {
		t.Fatalf("bounded derived table holds %d views, capacity 10", got)
	}
}

// TestConcurrentRoutingDuringDerive drives At on the parent from
// several goroutines while the main goroutine repeatedly derives from
// it, as PATCH /graph does under traffic — the -race witness that
// adopting views never tears one out from under a reader, and that a
// derived cache holds only views of its own locality.
func TestConcurrentRoutingDuringDerive(t *testing.T) {
	g := gen.Grid(6, 6)
	k := 2
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})
	vs := g.Vertices()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sc := NewScratch()
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := vs[rng.Intn(len(vs))]
				v := p.At(u, sc)
				if v == nil || v.Center != u || v.K != k {
					t.Errorf("At(%d) returned inconsistent view", u)
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		e := g.Edges()[rng.Intn(g.M())]
		post, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
		if err != nil {
			t.Fatal(err)
		}
		np := p.Derive(post, dirty)
		if got := np.Stats().Size; got > int64(g.N()-len(dirty)) {
			t.Fatalf("derived cache holds %d views, more than the %d clean vertices", got, g.N()-len(dirty))
		}
		u := dirty[rng.Intn(len(dirty))]
		if v := np.At(u, nil); v.Center != u || v.K != k {
			t.Fatalf("derived At(%d) returned inconsistent view", u)
		}
	}
	close(stop)
	wg.Wait()
}

// chordFlap returns a prewarmed unbounded preprocessor over a side×side
// grid at k = 3 and the post graph and dirty set of adding a chord
// between two interior vertices 10 apart around the centre, so every
// grid size presents the same k-balls and only n differs.
func chordFlap(tb testing.TB, side int) (*Preprocessor, *graph.Graph, []graph.Vertex) {
	tb.Helper()
	const k = 3
	g := gen.Grid(side, side)
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})
	p.Prewarm(0)
	c := graph.Vertex(side/2*side + side/2)
	post, dirty, err := churn.Apply(g, churn.Delta{Op: churn.AddEdge, U: c, V: c + 10}, k)
	if err != nil {
		tb.Fatal(err)
	}
	return p, post, dirty
}

// TestDeriveAllocsIndependentOfN gates the locality theorem's cost
// promise on the view cache: one chord-flap Derive on a prewarmed grid
// allocates a directory of n/256 pointers and the pages that hold dirty
// slots, under 32 KiB at n = 10⁴ and at n = 4·10⁴ alike, where cloning
// a label map per shard cost hundreds of KB and grew with n.
func TestDeriveAllocsIndependentOfN(t *testing.T) {
	const gate = 32 << 10
	for _, side := range []int{100, 200} {
		p, post, dirty := chordFlap(t, side)
		// The minimum over a few Derives, with the collector off, keeps
		// a background allocation out of the window.
		best := ^uint64(0)
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for trial := 0; trial < 3; trial++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				np := p.Derive(post, dirty)
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(np)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
		}()
		if best > gate {
			t.Fatalf("n=%d: one chord-flap Derive allocates %d bytes, gate %d", side*side, best, gate)
		}
		t.Logf("n=%d: %d dirty views, Derive allocates %d bytes (gate %d)", side*side, len(dirty), best, gate)
	}
}

// BenchmarkDeriveIncreasingN times one chord-flap Derive on a
// prewarmed grid as n grows (k = 3, the same k-balls at every size):
// ns/op and B/op should stay flat. Each iteration flaps the chord the
// other way and, off the clock, rebuilds the dirty views, so every
// Derive meets a full cache as PATCH /graph under traffic does.
func BenchmarkDeriveIncreasingN(b *testing.B) {
	for _, side := range []int{100, 200, 316} {
		b.Run(fmt.Sprintf("n=%d", side*side), func(b *testing.B) {
			p, post, dirty := chordFlap(b, side)
			gs := [2]*graph.Graph{p.Store().(*graph.Graph), post}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p = p.Derive(gs[(i+1)%2], dirty)
				b.StopTimer()
				for _, u := range dirty {
					p.At(u, nil)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(dirty)), "dirtyViews/op")
		})
	}
}
