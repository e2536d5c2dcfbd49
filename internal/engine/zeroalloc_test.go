package engine

import (
	"errors"
	"runtime/debug"
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
// exercises nbhd.BounceScratch reuse through route's simPool, and
// Algorithm 3's per-hop extraction into pooled scratch, each over the
// graph itself and over its CSR (bigraph.FromGraph, subtests "/csr").
func TestWarmRouteAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	algs := []struct {
		name string
		alg  route.Algorithm
	}{
		{"Algorithm2", route.Algorithm2()},
		{"Algorithm1B", route.Algorithm1B()},
		{"Algorithm3", route.Algorithm3()},
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
				snap, err := NewSnapshotStore(st, 0, tc.alg, SnapshotOptions{Prewarm: -1})
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
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const k = 3
	for _, tc := range gateStores(t) {
		t.Run(tc.name, func(t *testing.T) {
			vs := tc.vs
			for _, u := range vs { // warm: pooled scratch at its high-water mark
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
// k = 3. Each measured call meets a fresh view, built beforehand.
func TestRoutingHalfAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const k, runs = 3, 200
	for _, tc := range gateStores(t) {
		t.Run(tc.name, func(t *testing.T) {
			vs := tc.vs
			for _, u := range vs { // warm: pooled scratch at its high-water mark
				prep.PreprocessStore(tc.st, u, k, prep.PolicyMinRank).RoutingHalf()
			}
			// AllocsPerRun makes one warm-up call before its runs.
			fresh := make([]*prep.View, runs+1)
			for i := range fresh {
				fresh[i] = prep.PreprocessStore(tc.st, vs[i%len(vs)], k, prep.PolicyMinRank)
			}
			// A collection mid-run could empty the pooled builders.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
}

// TestDoBatchSaturatedNoLossNoDup: when DoBatch fails with ErrSaturated
// mid-batch, the already-admitted requests are still routed toward the
// batch's pooled completion channel. The error path must consume exactly
// those in-flight responses before the channel returns to the pool —
// a straggler left behind would be delivered to a later, unrelated batch
// (a response lost here and a slot corrupted there). This test saturates
// a 1-worker/1-slot engine mid-batch, then reuses the engine for full
// batches of distinguishable requests and checks every slot carries its
// own request. Run under -race it also proves the pooled channel handoff
// is properly synchronized.
func TestDoBatchSaturatedNoLossNoDup(t *testing.T) {
	g := gen.Path(8)
	snap := &Snapshot{
		pre: prep.NewPreprocessor(g, 1, 0, prep.CacheOptions{}),
		alg: route.Algorithm{
			Name: "slow",
			MinK: func(int) int { return 1 },
		},
		f: func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
			time.Sleep(20 * time.Millisecond)
			return t, nil
		},
	}
	e := New(snap, Config{Workers: 1, QueueDepth: 1})
	defer e.Close()

	// Distinguishable one-hop requests: slot i of any full batch must
	// come back carrying exactly {i, i+1}.
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{S: graph.Vertex(i), T: graph.Vertex(i + 1)}
	}

	// Saturate mid-batch: the worker is busy 20ms per hop, the queue
	// holds one task, so the budget expires while the third submit waits.
	out, err := e.DoBatch(reqs, 30*time.Millisecond)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoBatch on a saturated engine returned %v, want ErrSaturated", err)
	}
	if out != nil {
		t.Fatalf("saturated DoBatch returned %d responses, want none", len(out))
	}

	// The channel DoBatch just pooled must be empty. Route full batches
	// through the same engine: any straggler from the failed batch would
	// surface as a slot holding a foreign request (or a missing one).
	for round := 0; round < 3; round++ {
		out, err := e.DoBatch(reqs, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(out) != len(reqs) {
			t.Fatalf("round %d: %d responses for %d requests", round, len(out), len(reqs))
		}
		for i := range out {
			if out[i].Request != reqs[i] {
				t.Fatalf("round %d slot %d holds %+v, want %+v (stale response leaked across batches)", round, i, out[i].Request, reqs[i])
			}
			if out[i].Result == nil || out[i].Result.Outcome != sim.Delivered {
				t.Fatalf("round %d slot %d undelivered", round, i)
			}
		}
	}
}
