package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// gv abbreviates the vertex conversions in table-driven route pairs.
func gv(i int) graph.Vertex { return graph.Vertex(i) }

// opaqueStore hides a store's concrete type, so routing over it takes
// the generic Store paths (the label-space branch of
// nbhd.Scratch.Extract) instead of the graph and CSR row walks.
type opaqueStore struct{ bigraph.Store }

// TestSnapshotStoreDifferential pins store-backed routing to the classic
// graph-backed path: same algorithm, same pairs, same outcomes and
// walks over the CSR form of the graph and over an opaque Store
// wrapping it — only Dist is allowed to differ (0 = unknown on the store
// side).
func TestSnapshotStoreDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range []graphCase{
		{gen.Cycle(18), 0},
		{gen.Grid(4, 5), 0},
		{gen.RandomConnected(rng, 20, 0.1), 0},
	} {
		c := bigraph.FromGraph(g.g)
		stores := []struct {
			name string
			st   bigraph.Store
		}{{"csr", c}, {"opaque", opaqueStore{c}}}
		for _, alg := range []route.Algorithm{
			route.Algorithm1(), route.Algorithm1B(), route.Algorithm2(), route.Algorithm3(),
			route.TreeRightHand(), route.Algorithm2Policy(prep.PolicyMaxRank), route.RandomWalk(5),
		} {
			want, err := NewSnapshotStore(g.g, g.k, alg, SnapshotOptions{})
			if err != nil {
				t.Fatalf("%s: graph snapshot: %v", alg.Name, err)
			}
			gots := make([]*Snapshot, len(stores))
			for i, sc := range stores {
				got, err := NewSnapshotStore(sc.st, g.k, alg, SnapshotOptions{})
				if err != nil {
					t.Fatalf("%s: %s snapshot: %v", alg.Name, sc.name, err)
				}
				if got.Graph() != nil {
					t.Fatalf("%s: %s-backed snapshot claims a graph", alg.Name, sc.name)
				}
				if got.K() != want.K() {
					t.Fatalf("%s: %s k=%d, want %d", alg.Name, sc.name, got.K(), want.K())
				}
				gots[i] = got
			}
			vs := g.g.Vertices()
			for trial := 0; trial < 40; trial++ {
				s := vs[rng.Intn(len(vs))]
				d := vs[rng.Intn(len(vs))]
				rw := want.Route(s, d, 0)
				for i, got := range gots {
					name := stores[i].name
					rg := got.Route(s, d, 0)
					if rw.Outcome != rg.Outcome {
						t.Fatalf("%s/%s: route %d->%d outcome %v, want %v", alg.Name, name, s, d, rg.Outcome, rw.Outcome)
					}
					if fmt.Sprint(rw.Route) != fmt.Sprint(rg.Route) {
						t.Fatalf("%s/%s: route %d->%d walk %v, want %v", alg.Name, name, s, d, rg.Route, rw.Route)
					}
					if rg.Dist != 0 {
						t.Fatalf("%s/%s: store-backed Dist=%d, want 0 (unknown)", alg.Name, name, rg.Dist)
					}
				}
			}
		}
	}
}

type graphCase struct {
	g *graph.Graph
	k int
}

// TestSnapshotStoreOracleRejected: full-topology baselines cannot bind to
// a k-local store.
func TestSnapshotStoreOracleRejected(t *testing.T) {
	c := bigraph.FromGraph(gen.Cycle(8))
	if _, err := NewSnapshotStore(c, 1, route.ShortestPathOracle(), SnapshotOptions{}); err == nil {
		t.Fatal("oracle bound to a store; it needs full topology")
	}
}

// TestSnapshotStoreEngineEndToEnd runs the full engine worker pool over a
// CSR-backed snapshot.
func TestSnapshotStoreEngineEndToEnd(t *testing.T) {
	g := gen.Cycle(24)
	c := bigraph.FromGraph(g)
	snap, err := NewSnapshotStore(c, 0, route.Algorithm2(), SnapshotOptions{Prewarm: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 4})
	w := Zipf(rand.New(rand.NewSource(2)), c, 0)
	if err := e.RunWorkload(w, 200, 0); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if got := rep.Counter("requests"); got != 200 {
		t.Fatalf("requests=%d, want 200", got)
	}
	if got := rep.Counter("delivered"); got != 200 {
		t.Fatalf("delivered=%d, want 200 (k at threshold on a cycle)", got)
	}
}

// routeAllocBudget is the engine's per-route allocation regression gate
// for the fixed scenario below (cycle-24, Algorithm 2 at threshold, warm
// cache, CSR-backed). Snapshot.Route builds a fresh sim.Scratch per
// call (its route buffer, loop-detection maps, search banks and prep
// scratch), so it
// cannot reach RouteScratch's zero; the decisions themselves allocate
// nothing. Measured 10.0; the budget catches anything that reintroduces
// per-hop view extraction (hundreds of allocs) or O(n) work.
const routeAllocBudget = 16

func TestRouteAllocsBudget(t *testing.T) {
	g := gen.Cycle(24)
	c := bigraph.FromGraph(g)
	snap, err := NewSnapshotStore(c, 0, route.Algorithm2(), SnapshotOptions{Prewarm: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm every view the routes below will touch.
	pairs := [][2]int{{0, 12}, {3, 20}, {7, 1}, {15, 4}}
	for _, p := range pairs {
		if res := snap.Route(gv(p[0]), gv(p[1]), 0); res.Outcome != sim.Delivered {
			t.Fatalf("route %v: %v", p, res.Outcome)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		p := pairs[i%len(pairs)]
		i++
		snap.Route(gv(p[0]), gv(p[1]), 0)
	})
	if avg > routeAllocBudget {
		t.Fatalf("warm store-backed route allocates %.1f times, budget %d", avg, routeAllocBudget)
	}
	t.Logf("warm route: %.1f allocs (budget %d)", avg, routeAllocBudget)
}
