package prep

import (
	"math/rand"
	"sync"
	"testing"

	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// sameViewData compares the routing-relevant content of two views.
func sameViewData(a, b *View) bool { return DiffViews(a, b) == nil }

func TestInvalidateExact(t *testing.T) {
	g := gen.Grid(8, 8)
	k := 2
	p := NewPreprocessor(g, k)
	p.Prewarm(4)
	total := p.Stats().Size
	if total != int64(g.N()) {
		t.Fatalf("prewarm cached %d views, want %d", total, g.N())
	}
	before := make(map[graph.Vertex]*View)
	g.EachVertex(func(u graph.Vertex) bool {
		before[u] = p.At(u)
		return true
	})

	e := g.Edges()[g.M()/3]
	_, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
	if err != nil {
		t.Fatal(err)
	}
	dropped := p.Invalidate(dirty)
	if dropped != len(dirty) {
		t.Fatalf("Invalidate dropped %d views, want %d (all dirty were resident)", dropped, len(dirty))
	}
	if got := p.Stats().Size; got != total-int64(dropped) {
		t.Fatalf("Size = %d after invalidate, want %d", got, total-int64(dropped))
	}

	isDirty := make(map[graph.Vertex]bool)
	for _, u := range dirty {
		isDirty[u] = true
	}
	g.EachVertex(func(u graph.Vertex) bool {
		v := p.At(u)
		if isDirty[u] {
			if v == before[u] {
				t.Fatalf("dirty vertex %d still served its evicted view", u)
			}
		} else if v != before[u] {
			t.Fatalf("clean vertex %d lost its cached view", u)
		}
		return true
	})

	// Idempotent: everything is resident again, a second invalidation of
	// the same set drops the same count.
	if again := p.Invalidate(dirty); again != dropped {
		t.Fatalf("second Invalidate dropped %d, want %d", again, dropped)
	}
	if none := p.Invalidate(nil); none != 0 {
		t.Fatalf("Invalidate(nil) dropped %d", none)
	}
}

func TestDeriveEpochIsolation(t *testing.T) {
	g := gen.Grid(7, 7)
	k := 2
	p := NewPreprocessor(g, k)
	p.Prewarm(4)

	d := churn.Delta{Op: churn.RemoveEdge, U: g.Edges()[0].U, V: g.Edges()[0].V}
	post, dirty, err := churn.Apply(g, d, k)
	if err != nil {
		t.Fatal(err)
	}
	np := p.Derive(post, dirty)
	if np.Graph() != post {
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
		nv := np.At(u)
		if isDirty[u] {
			if nv == p.At(u) {
				t.Fatalf("dirty vertex %d shares a view across epochs", u)
			}
			if want := PreprocessPolicy(post, u, k, p.Policy()); !sameViewData(nv, want) {
				t.Fatalf("derived view at dirty vertex %d differs from from-scratch view", u)
			}
		} else if nv != p.At(u) {
			t.Fatalf("clean vertex %d did not adopt the old epoch's view", u)
		}
		return true
	})

	// The old epoch is untouched: every old view still matches a fresh
	// computation over the OLD graph.
	g.EachVertex(func(u graph.Vertex) bool {
		if !sameViewData(p.At(u), PreprocessPolicy(g, u, k, p.Policy())) {
			t.Fatalf("old epoch view at %d corrupted by Derive", u)
		}
		return true
	})
}

func TestDeriveBoundedCache(t *testing.T) {
	g := gen.Cycle(24)
	p := NewPreprocessorOpts(g, 2, PolicyMinRank, CacheOptions{Capacity: 10})
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
	// The bounded path must keep adopted views in the evictable live
	// level — a frozen map would exempt them from capacity replacement.
	for i := range np.shards {
		if np.shards[i].frozen.Load() != nil {
			t.Fatal("bounded derived cache froze adopted views")
		}
	}
	// Filling the cache further stays within capacity plus the seed
	// cache's per-shard replacement slack (an insert into a shard whose
	// live map is empty cannot evict).
	post.EachVertex(func(u graph.Vertex) bool {
		np.At(u)
		return true
	})
	if got := np.Stats().Size; got > 10+int64(len(np.shards)) {
		t.Fatalf("bounded cache grew to %d views after adoption", got)
	}
}

// TestConcurrentRoutingDuringInvalidate drives At from several
// goroutines while the main goroutine repeatedly invalidates random
// dirty sets — the -race witness that eviction never tears a view out
// from under a reader.
func TestConcurrentRoutingDuringInvalidate(t *testing.T) {
	g := gen.Grid(6, 6)
	k := 2
	p := NewPreprocessor(g, k)
	vs := g.Vertices()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := vs[rng.Intn(len(vs))]
				v := p.At(u)
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
		_, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
		if err != nil {
			t.Fatal(err)
		}
		p.Invalidate(dirty)
	}
	close(stop)
	wg.Wait()
}
