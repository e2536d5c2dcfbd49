package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// TestSnapshotIncrementalMatchesFresh routes every pair on an
// incrementally swapped snapshot and on a from-scratch snapshot of the
// same post-delta graph; outcomes and walks must agree exactly.
func TestSnapshotIncrementalMatchesFresh(t *testing.T) {
	g := gen.Grid(5, 5)
	k := 3
	snap, err := NewSnapshotStore(g, k, route.Algorithm2(), SnapshotOptions{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	sched := churn.ScheduleDeltas(g, 5, 8)
	cur := g
	inc := snap
	for i, d := range sched {
		post, dirty, err := churn.Apply(cur, d, k)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		inc, err = inc.Incremental(post, dirty)
		if err != nil {
			t.Fatalf("delta %d: incremental swap: %v", i, err)
		}
		fresh, err := NewSnapshotStore(post, k, route.Algorithm2(), SnapshotOptions{})
		if err != nil {
			t.Fatalf("delta %d: fresh snapshot: %v", i, err)
		}
		vs := post.Vertices()
		for _, s := range vs {
			for _, tt := range vs {
				if s == tt {
					continue
				}
				a := inc.Route(s, tt, 0)
				b := fresh.Route(s, tt, 0)
				if a.Outcome != b.Outcome || a.Len() != b.Len() {
					t.Fatalf("delta %d: route %d->%d diverges: incremental (%v, %d hops) vs fresh (%v, %d hops)",
						i, s, tt, a.Outcome, a.Len(), b.Outcome, b.Len())
				}
			}
		}
		cur = post
	}
}

// TestSwapSnapshotMidTraffic hot-swaps epochs while a caller routes —
// the -race witness for the atomic snapshot pointer.
func TestSwapSnapshotMidTraffic(t *testing.T) {
	g := gen.Grid(6, 6)
	k := 2
	snap, err := NewSnapshotStore(g, k, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		vs := g.Vertices()
		for i := 0; i < 400; i++ {
			s := vs[rng.Intn(len(vs))]
			d := vs[rng.Intn(len(vs))]
			if s == d {
				continue
			}
			res, err := e.Do(Request{S: s, T: d}, 0)
			if errors.Is(err, ErrNoVertex) {
				continue // churn removed an endpoint
			}
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if res.Result.Outcome != sim.Delivered {
				// Churn may transiently disconnect pairs; only crashes
				// and races are failures here.
				continue
			}
		}
	}()
	cur := g
	sched := churn.NewScheduler(g, 77)
	for i := 0; i < 60; i++ {
		d := sched.Next()
		post, dirty, err := churn.Apply(cur, d, k)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		next, err := e.Snapshot().Incremental(post, dirty)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if epoch := e.SwapSnapshot(next); epoch != int64(i+2) {
			t.Fatalf("swap %d numbered its snapshot epoch %d, want %d", i, epoch, i+2)
		}
		cur = post
	}
	wg.Wait()
	e.Close()
}

func TestHotspotWorkloadSkew(t *testing.T) {
	// On a barbell the bridge path carries all cross-clique shortest
	// paths: its betweenness dwarfs the clique interiors, so hotspot
	// destinations must concentrate there.
	g := gen.Barbell(6, 3)
	rng := rand.New(rand.NewSource(4))
	w := Hotspot(rng, g, 0)
	if w.Name != "hotspot" {
		t.Fatalf("workload name %q", w.Name)
	}
	vs, bc := ApproxBetweenness(g, rand.New(rand.NewSource(4)), g.N())
	var hot graph.Vertex
	best := -1.0
	for i, v := range vs {
		if bc[i] > best {
			best, hot = bc[i], v
		}
	}
	counts := make(map[graph.Vertex]int)
	for i := 0; i < 3000; i++ {
		req := w.Next()
		counts[req.T]++
		if req.S == req.T {
			t.Fatal("self-pair emitted")
		}
	}
	if counts[hot] <= 3000/g.N() {
		t.Fatalf("top-betweenness vertex %d drew %d of 3000 destinations, no skew over uniform %d",
			hot, counts[hot], 3000/g.N())
	}
}

func TestHotspotDeterministic(t *testing.T) {
	g := gen.Grid(4, 4)
	a := Take(Hotspot(rand.New(rand.NewSource(9)), g, 8), 50)
	b := Take(Hotspot(rand.New(rand.NewSource(9)), g, 8), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identically seeded workloads", i)
		}
	}
}

func TestNewWorkloadStoreHotspot(t *testing.T) {
	g := gen.Grid(4, 4)
	w, err := NewWorkload("hotspot", rand.New(rand.NewSource(2)), bigraph.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "hotspot" {
		t.Fatalf("name %q", w.Name)
	}
	for _, r := range Take(w, 20) {
		if !g.HasVertex(r.S) || !g.HasVertex(r.T) || r.S == r.T {
			t.Fatalf("bad request %+v", r)
		}
	}
}
