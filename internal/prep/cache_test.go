package prep

import (
	"math/rand"
	"sync"
	"testing"

	"klocal/internal/gen"
)

func TestCacheHitsAndSharing(t *testing.T) {
	g := gen.Cycle(16)
	p := NewPreprocessor(g, 4, PolicyMinRank, CacheOptions{})
	v1 := p.At(3, nil)
	v2 := p.At(3, nil)
	if v1 != v2 {
		t.Fatal("repeated At must return the shared cached view")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	g := gen.Cycle(32)
	p := NewPreprocessor(g, 3, PolicyMinRank, CacheOptions{Capacity: 4})
	for _, v := range g.Vertices() {
		p.At(v, nil)
	}
	st := p.Stats()
	if st.Size > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", st.Size)
	}
	if st.Evictions != int64(g.N()-4) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, g.N()-4)
	}
	// Evicted views must be recomputed correctly, not lost.
	v := p.At(0, nil)
	if v.Center != 0 || v.K != 3 {
		t.Fatalf("recomputed view wrong: center=%d k=%d", v.Center, v.K)
	}
}

// TestCacheCapacityDefaultShards pins Capacity as an exact bound on
// the whole cache, at capacities from 1 up and not powers of two: after
// every insert the cache holds at most Capacity views, and filling it
// leaves exactly Capacity.
func TestCacheCapacityDefaultShards(t *testing.T) {
	g := gen.Grid(10, 10)
	vs := g.Vertices()
	for _, capacity := range []int{1, 3, 4, 7, 13} {
		p := NewPreprocessor(g, 2, PolicyMinRank, CacheOptions{Capacity: capacity})
		for i, v := range vs {
			p.At(v, nil)
			if st := p.Stats(); st.Size > int64(capacity) {
				t.Fatalf("capacity %d: %d views resident after %d inserts", capacity, st.Size, i+1)
			}
		}
		st := p.Stats()
		if st.Size != int64(capacity) || st.Evictions != int64(len(vs)-capacity) {
			t.Fatalf("capacity %d: size %d, evictions %d; want %d and %d",
				capacity, st.Size, st.Evictions, capacity, len(vs)-capacity)
		}
		// The view just built is never its own eviction victim.
		last := vs[len(vs)-1]
		p.At(last, nil)
		if hits := p.Stats().Hits; hits != st.Hits+1 {
			t.Fatalf("capacity %d: the most recent view was evicted", capacity)
		}
	}
}

func TestCacheConcurrentSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.RandomConnected(rng, 24, 0.1)
	k := 6
	p := NewPreprocessor(g, k, PolicyMinRank, CacheOptions{})

	var wg sync.WaitGroup
	views := make([][]*View, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScratch()
			views[w] = make([]*View, g.N())
			for i, u := range g.Vertices() {
				views[w][i] = p.At(u, sc)
			}
		}(w)
	}
	wg.Wait()

	// All workers must observe identical view contents, and (after the
	// cache settles) the same instances as a fresh sequential pass.
	for i, u := range g.Vertices() {
		want := PreprocessStore(g, u, k, PolicyMinRank)
		for w := 0; w < 8; w++ {
			got := views[w][i]
			if err := DiffViews(got, want); err != nil {
				t.Fatalf("worker %d vertex %d: view differs from sequential preprocessing: %v", w, u, err)
			}
			if p.At(u, nil) != p.At(u, nil) {
				t.Fatalf("vertex %d: cache returns distinct instances after settling", u)
			}
		}
	}
	if st := p.Stats(); st.Size != int64(g.N()) {
		t.Fatalf("cache size = %d, want %d", st.Size, g.N())
	}
}

func TestPrewarm(t *testing.T) {
	g := gen.Lollipop(12, 6)
	p := NewPreprocessor(g, 5, PolicyMinRank, CacheOptions{})
	p.Prewarm(4)
	if st := p.Stats(); st.Size != int64(g.N()) {
		t.Fatalf("prewarm cached %d views, want %d", st.Size, g.N())
	}
	before := p.Stats().Misses
	for _, v := range g.Vertices() {
		p.At(v, nil)
	}
	if after := p.Stats().Misses; after != before {
		t.Fatalf("post-prewarm lookups missed: %d -> %d", before, after)
	}
}

func TestPrewarmBounded(t *testing.T) {
	g := gen.Cycle(20)
	p := NewPreprocessor(g, 3, PolicyMinRank, CacheOptions{Capacity: 5})
	p.Prewarm(2)
	if st := p.Stats(); st.Size > 5 {
		t.Fatalf("bounded prewarm overfilled: size %d > capacity 5", st.Size)
	}
}

func TestCacheStatsDelta(t *testing.T) {
	prev := CacheStats{Hits: 10, Misses: 4, Evictions: 1, Size: 6}
	cur := CacheStats{Hits: 25, Misses: 9, Evictions: 3, Size: 8}
	d := cur.Delta(prev)
	if d.Hits != 15 || d.Misses != 5 || d.Evictions != 2 {
		t.Fatalf("delta counts = %+v, want hits 15 misses 5 evictions 2", d)
	}
	if d.Size != 8 {
		t.Fatalf("delta size = %d, want the absolute current size 8", d.Size)
	}
	// A fresh preprocessor (post-swap) has smaller counters; rates must
	// clamp to zero instead of going negative.
	reset := CacheStats{Hits: 2, Misses: 1, Size: 3}.Delta(prev)
	if reset.Hits != 0 || reset.Misses != 0 || reset.Evictions != 0 || reset.Size != 3 {
		t.Fatalf("post-reset delta = %+v, want clamped zeros with size 3", reset)
	}
}
