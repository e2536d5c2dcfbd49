package prep

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// randomStep applies one random delta valid on g at locality k: an edge
// add (between two vertices, or to a new one), an edge removal, a vertex
// arrival at a label below, among or above the current ones, or a
// vertex removal. Arrivals and removals re-index the store; edge deltas
// keep its indices.
func randomStep(t *testing.T, rng *rand.Rand, g *graph.Graph, k int) (*graph.Graph, []graph.Vertex) {
	t.Helper()
	vs := g.Vertices()
	label := func() graph.Vertex {
		return vs[0] - 3 + graph.Vertex(rng.Intn(int(vs[len(vs)-1]-vs[0])+7))
	}
	for {
		var d churn.Delta
		switch r := rng.Intn(10); {
		case r < 4:
			d = churn.Delta{Op: churn.AddEdge, U: vs[rng.Intn(len(vs))], V: label()}
		case r < 8:
			if g.M() == 0 {
				continue
			}
			e := g.Edges()[rng.Intn(g.M())]
			d = churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}
		case r < 9:
			d = churn.Delta{Op: churn.AddVertex, U: label()}
		default:
			if len(vs) <= 3 {
				continue
			}
			d = churn.Delta{Op: churn.RemoveVertex, U: vs[rng.Intn(len(vs))]}
		}
		if post, dirty, err := churn.Apply(g, d, k); err == nil {
			return post, dirty
		}
	}
}

// bandGraph returns a random connected graph on 0..n−1 whose edges join
// labels at most 6 apart: a path plus random short chords. Its k-balls
// stay narrow in index space, so past one table page an edge flap
// leaves pages for Derive to share.
func bandGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
		if j := i - 2 - rng.Intn(5); j >= 0 && rng.Intn(3) == 0 {
			b.AddEdge(graph.Vertex(j), graph.Vertex(i))
		}
	}
	return b.Build()
}

// checkEpoch asserts that p serves, at each of vs, the view a rebuild
// on g computes, and that a bounded cache holds at most capacity views.
func checkEpoch(t *testing.T, what string, g *graph.Graph, p *Preprocessor, capacity int, vs []graph.Vertex) {
	t.Helper()
	for _, u := range vs {
		if err := DiffViews(p.At(u), PreprocessStore(g, u, p.K(), p.Policy())); err != nil {
			t.Fatalf("%s: view at %d differs from a rebuild on its own store: %v", what, u, err)
		}
	}
	if size := p.Stats().Size; capacity > 0 && size > int64(capacity) {
		t.Fatalf("%s: %d views resident, capacity %d", what, size, capacity)
	}
}

// TestDeriveMatchesRebuild runs random chains of churn steps, each
// epoch derived from the last, over small random graphs and over a
// banded one a little past one table page (where Derive shares pages), on an
// unbounded cache and on capacities 1, 3, 7 and n − 1. Each parent is
// warmed on a random part of its vertices first, so Derive meets full,
// partly filled and empty slots. After every step the child serves its
// own store's views (and the empty view at an absent label), the parent
// still serves its own at the dirty vertices, an unbounded child holds
// the parent's pointer for every clean view the parent held and a new
// view for every dirty one, and no bounded epoch exceeds its capacity.
// At the end every epoch of the chain still serves its own store.
func TestDeriveMatchesRebuild(t *testing.T) {
	const steps = 40
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, k := 10+rng.Intn(8), 1+int(seed%3)
		g0 := gen.RandomConnected(rng, n, 0.2)
		if seed == 2 {
			n, k = pageSize+1+rng.Intn(pageSize/8), 2
			g0 = bandGraph(rng, n)
		}
		for _, capacity := range []int{0, 1, 3, 7, n - 1} {
			t.Run(fmt.Sprintf("seed=%d/n=%d/cap=%d", seed, n, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
				gs := []*graph.Graph{g0}
				ps := []*Preprocessor{NewPreprocessor(g0, k, PolicyMinRank, CacheOptions{Capacity: capacity})}
				shared := 0 // pages some Derive left shared
				for step := 0; step < steps; step++ {
					g, p := gs[len(gs)-1], ps[len(ps)-1]
					for _, u := range g.Vertices() {
						if rng.Intn(3) > 0 {
							p.At(u)
						}
					}
					held := make(map[graph.Vertex]*View)
					for _, v := range CachedViews(p) {
						held[v.Center] = v
					}
					post, dirty := randomStep(t, rng, g, k)
					np := p.Derive(post, dirty)
					gs, ps = append(gs, post), append(ps, np)
					for j := range np.dir {
						if j < len(p.dir) && np.dir[j] == p.dir[j] {
							shared++
						}
					}
					if capacity == 0 {
						isDirty := make(map[graph.Vertex]bool)
						for _, u := range dirty {
							isDirty[u] = true
						}
						for _, u := range post.Vertices() {
							if was := held[u]; was != nil && (np.At(u) == was) == isDirty[u] {
								t.Fatalf("step %d: vertex %d (dirty %v) kept its pointer %v", step, u, isDirty[u], !isDirty[u])
							}
						}
					}
					vs := post.Vertices()
					checkEpoch(t, fmt.Sprintf("step %d, child", step), post, np, capacity, append(vs, vs[len(vs)-1]+1))
					// A parent corrupted through a page it shares with the
					// child serves the child's view at a dirty vertex.
					checkEpoch(t, fmt.Sprintf("step %d, parent", step), g, p, capacity, dirty)
				}
				for i := range ps {
					checkEpoch(t, fmt.Sprintf("epoch %d", i), gs[i], ps[i], capacity, gs[i].Vertices())
				}
				if n > pageSize && capacity > pageSize && shared == 0 {
					t.Fatal("no Derive shared a page; the chain never took the shared-page path")
				}
			})
		}
	}
}

// TestConcurrentAtAcrossEpochs: readers call At on the last three
// epochs while the main goroutine keeps deriving from the newest, so
// older epochs publish into pages they share with newer ones while
// Derive reads and copies them. Each reader checks that every view it
// gets is its epoch's own (equal to a rebuild on that epoch's store);
// under -race this is the witness for the table's publication protocol.
func TestConcurrentAtAcrossEpochs(t *testing.T) {
	const k, derives = 2, 60
	g0 := gen.Grid(24, 24) // three pages: each flap copies one or two
	for _, capacity := range []int{0, 300} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			type epoch struct {
				g *graph.Graph
				p *Preprocessor
			}
			var last atomic.Pointer[[3]epoch]
			e0 := epoch{g0, NewPreprocessor(g0, k, PolicyMinRank, CacheOptions{Capacity: capacity})}
			last.Store(&[3]epoch{e0, e0, e0})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
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
						e := last.Load()[rng.Intn(3)]
						vs := e.g.Vertices()
						u := vs[rng.Intn(len(vs))]
						if err := DiffViews(e.p.At(u), PreprocessStore(e.g, u, k, PolicyMinRank)); err != nil {
							t.Errorf("view at %d differs from a rebuild on its epoch's store: %v", u, err)
							return
						}
					}
				}(int64(w))
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < derives; i++ {
				cur := last.Load()
				e := cur[2]
				post, dirty := randomStep(t, rng, e.g, k)
				last.Store(&[3]epoch{cur[1], e, {post, e.p.Derive(post, dirty)}})
			}
			close(stop)
			wg.Wait()
			for _, e := range last.Load() {
				checkEpoch(t, "final epoch", e.g, e.p, capacity, e.g.Vertices())
			}
		})
	}
}
