package engine

import (
	"errors"
	"testing"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// warmRouteAllocGate bounds the steady-state allocations of one warm
// RouteScratch call (views cached, worker-owned scratch), graph- or
// CSR-backed. The compact-view decision paths and the epoch-marked
// scratch banks make this 0: any regression that reintroduces
// per-request maps, view rebuilding, or growing buffers trips the gate
// immediately.
const warmRouteAllocGate = 0

// TestWarmRouteAllocsGate is the zero-alloc regression gate on the warm
// serving path: Snapshot.RouteScratch with a reused scratch, all views
// prewarmed, must not allocate at all. Covers the plain compact path
// (Algorithm 2), the bounce-simulation path (Algorithm 1B), which
// reuses the bounce banks of the prep scratch inside the lane's scratch,
// Algorithm 3's Lemma 12 move over the zero-policy routing half, and
// the right-hand and random-walk baselines, each over the graph itself
// and over its CSR (bigraph.FromGraph, subtests "/csr").
func TestWarmRouteAllocsGate(t *testing.T) {
	// The paper's algorithms bind at their threshold (k = 0); the
	// baselines, which guarantee nothing, at ⌊n/2⌋ = 12, where the four
	// pairs below deliver.
	algs := []struct {
		name string
		alg  route.Algorithm
		k    int
	}{
		{"Algorithm2", route.Algorithm2(), 0},
		{"Algorithm1B", route.Algorithm1B(), 0},
		{"Algorithm3", route.Algorithm3(), 0},
		{"RightHandRule", route.TreeRightHand(), 12},
		{"RandomWalk", route.RandomWalk(3), 12},
	}
	for _, tc := range algs {
		for _, csr := range []bool{false, true} {
			name := tc.name
			if csr {
				name += "/csr"
			}
			t.Run(name, func(t *testing.T) {
				g := testGraph(24)
				var st bigraph.Store = g
				if csr {
					st = bigraph.FromGraph(g)
				}
				snap, err := NewSnapshotStore(st, tc.k, tc.alg, SnapshotOptions{Prewarm: -1})
				if err != nil {
					t.Fatal(err)
				}
				vs := g.Vertices()
				pairs := [][2]graph.Vertex{
					{vs[0], vs[len(vs)-1]},
					{vs[len(vs)-1], vs[0]},
					{vs[3], vs[len(vs)/2]},
					{vs[len(vs)/2], vs[1]},
				}
				sc := sim.NewScratch()
				// Warm: every view cached, every scratch bank grown to
				// its high-water mark.
				for _, p := range pairs {
					if res := snap.RouteScratch(p[0], p[1], 0, sc); res.Outcome != sim.Delivered {
						t.Fatalf("route %v: %v", p, res.Outcome)
					}
				}
				i := 0
				avg := testing.AllocsPerRun(200, func() {
					p := pairs[i%len(pairs)]
					i++
					snap.RouteScratch(p[0], p[1], 0, sc)
				})
				if avg > warmRouteAllocGate {
					t.Fatalf("warm RouteScratch allocates %.2f times per request, gate %d", avg, warmRouteAllocGate)
				}
				t.Logf("warm RouteScratch: %.2f allocs/request (gate %d)", avg, warmRouteAllocGate)
			})
		}
	}
}

// TestWarmPortsAllocsGate holds the baselines at k = 0 to
// warmRouteAllocGate too: G_0(u) has no edges, so a router's ports come
// from a second cache of k = 1 views, which the warm-up fills. MaxSteps
// caps the random walks, so the warm-up grows the scratch to its
// high-water mark.
func TestWarmPortsAllocsGate(t *testing.T) {
	g := testGraph(24)
	vs := g.Vertices()
	for _, alg := range []route.Algorithm{route.TreeRightHand(), route.RandomWalk(3)} {
		t.Run(alg.Name, func(t *testing.T) {
			w := sim.Over(alg, prep.NewPreprocessor(g, 0, alg.Policy, prep.CacheOptions{}))
			sc := sim.NewScratch()
			walk := func(i int) {
				w.RunScratch(vs[i%len(vs)], vs[(7*i+3)%len(vs)], 48, sc)
			}
			for i := 0; i < 4*len(vs); i++ {
				walk(i)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				walk(i)
				i++
			})
			if avg > warmRouteAllocGate {
				t.Fatalf("warm walk at k = 0 allocates %.2f times per request, gate %d", avg, warmRouteAllocGate)
			}
		})
	}
}

// preprocessAllocGate bounds the allocations of one cold view build,
// which builds the Case-1 half only: one block for the view and G_k(u),
// one int32 arena and one vertex arena. A regression that builds the
// routing half eagerly (5 more) or reintroduces map-shaped
// construction (hundreds) trips the gate immediately.
const preprocessAllocGate = 3

// routingHalfAllocGate bounds the allocations of building one view's
// routing half: one block for the half and G'_k(u), one int32 arena, one
// vertex arena, the component list and the dormant edges.
const routingHalfAllocGate = 5

// gateStore is a store the view-build gates run on, with sources
// spread over it (interior and border alike).
type gateStore struct {
	name string
	st   bigraph.Store
	vs   []graph.Vertex
}

// gateStores returns the million-vertex CSR grid the scale workloads
// serve and a graph-backed grid.
func gateStores(t *testing.T) []gateStore {
	csr, err := gen.GridCSR(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(rows, cols int) []graph.Vertex {
		var vs []graph.Vertex
		for r := 0; r < rows; r += rows / 10 {
			for c := 0; c < cols; c += cols / 10 {
				vs = append(vs, graph.Vertex(r*cols+c))
			}
		}
		return vs
	}
	return []gateStore{
		{"csr-1000x1000", csr, spread(1000, 1000)},
		{"graph-100x100", gen.Grid(100, 100), spread(100, 100)},
	}
}

// TestPreprocessAllocsGate pins prep.PreprocessStore, the Case-1 build
// a cache miss runs, at or under preprocessAllocGate allocations per
// view at k = 3.
func TestPreprocessAllocsGate(t *testing.T) {
	const k = 3
	for _, tc := range gateStores(t) {
		t.Run(tc.name, func(t *testing.T) {
			vs := tc.vs
			for _, u := range vs { // warm: the shared scratch at its high-water mark
				prep.PreprocessStore(tc.st, u, k, prep.PolicyMinRank)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				prep.PreprocessStore(tc.st, vs[i%len(vs)], k, prep.PolicyMinRank)
				i++
			})
			if avg > preprocessAllocGate {
				t.Fatalf("PreprocessStore allocates %.2f times per view, gate %d", avg, preprocessAllocGate)
			}
			t.Logf("PreprocessStore: %.2f allocs/view (gate %d)", avg, preprocessAllocGate)
		})
	}
}

// TestRoutingHalfAllocsGate pins the first View.RoutingHalf call, which
// builds the half, at or under routingHalfAllocGate allocations at
// k = 3, under the paper's policy and under the zero policy Algorithm 3
// reads. Each measured call meets a fresh view, built beforehand.
func TestRoutingHalfAllocsGate(t *testing.T) {
	const k, runs = 3, 200
	for _, tc := range gateStores(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, pol := range []prep.Policy{prep.PolicyMinRank, 0} {
				t.Run(pol.String(), func(t *testing.T) {
					vs := tc.vs
					for _, u := range vs { // warm: the shared scratch at its high-water mark
						prep.PreprocessStore(tc.st, u, k, pol).RoutingHalf()
					}
					// AllocsPerRun makes one warm-up call before its runs.
					fresh := make([]*prep.View, runs+1)
					for i := range fresh {
						fresh[i] = prep.PreprocessStore(tc.st, vs[i%len(vs)], k, pol)
					}
					i := 0
					avg := testing.AllocsPerRun(runs, func() {
						fresh[i].RoutingHalf()
						i++
					})
					if avg > routingHalfAllocGate {
						t.Fatalf("building a routing half allocates %.2f times, gate %d", avg, routingHalfAllocGate)
					}
					t.Logf("RoutingHalf build: %.2f allocs/half (gate %d)", avg, routingHalfAllocGate)
				})
			}
		})
	}
}

// TestDoBatchSaturatedNoLossNoDup: a batch that finds every lane busy
// past its budget fails with ErrSaturated and routes nothing — the
// requests counter does not move — and later full batches on the same
// engine hold their own requests slot for slot. A Do waiting at a gated
// decision holds the engine's one lane.
func TestDoBatchSaturatedNoLossNoDup(t *testing.T) {
	gt := newGate()
	e := New(gt.snapshot(t, gen.Path(8)), Config{Workers: 1})

	// Distinguishable one-hop requests: slot i of any full batch must
	// come back carrying exactly {i, i+1}.
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{S: graph.Vertex(i), T: graph.Vertex(i + 1)}
	}

	held := hold(e)
	gt.await(1)
	out, err := e.DoBatch(reqs, 30*time.Millisecond)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoBatch on a saturated engine returned %v, want ErrSaturated", err)
	}
	if out != nil {
		t.Fatalf("saturated DoBatch returned %d responses, want none", len(out))
	}
	if got := e.LiveShard().Counter(mRequests); got != 0 {
		t.Fatalf("requests = %d after a saturated batch, want 0 (the held route is still in flight)", got)
	}
	gt.release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		out, err := e.DoBatch(reqs, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(out) != len(reqs) {
			t.Fatalf("round %d: %d responses for %d requests", round, len(out), len(reqs))
		}
		for i := range out {
			if out[i].Request != reqs[i] || out[i].Index != i {
				t.Fatalf("round %d slot %d holds %+v at index %d, want %+v", round, i, out[i].Request, out[i].Index, reqs[i])
			}
			if out[i].Result == nil || out[i].Result.Outcome != sim.Delivered {
				t.Fatalf("round %d slot %d undelivered", round, i)
			}
		}
	}
	if got, want := e.Report().Counter("requests"), int64(1+rounds*len(reqs)); got != want {
		t.Fatalf("requests = %d, want %d: the saturated batch routed part of itself", got, want)
	}
}

// sinkResult keeps measured clones on the heap.
var sinkResult *sim.Result

// TestDoAllocsGate pins Do's fast path: on an idle engine with warm
// views and lanes, a Do with a nonzero admission budget allocates
// exactly what Result.Clone does — no timer, no channel, no handoff.
func TestDoAllocsGate(t *testing.T) {
	g := testGraph(24)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{Prewarm: -1})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 2
	e := New(snap, Config{Workers: lanes})
	defer e.Close()
	vs := g.Vertices()
	req := Request{S: vs[0], T: vs[len(vs)-1]}
	for range 4 * lanes { // every lane's scratch at its high-water mark
		resp, err := e.Do(req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Outcome != sim.Delivered {
			t.Fatalf("warm Do: %v", resp.Result.Outcome)
		}
	}
	res := snap.RouteScratch(req.S, req.T, 0, sim.NewScratch())
	clone := testing.AllocsPerRun(200, func() { sinkResult = res.Clone() })
	do := testing.AllocsPerRun(200, func() {
		resp, _ := e.Do(req, time.Second)
		sinkResult = resp.Result
	})
	if do != clone {
		t.Fatalf("warm Do allocates %.2f times, Result.Clone %.2f", do, clone)
	}
	t.Logf("warm Do: %.2f allocs, all of them Result.Clone's", do)
}
