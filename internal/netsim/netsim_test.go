package netsim

import (
	"errors"
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/route"
	"klocal/internal/sim"
)

func startNetwork(t *testing.T, g *graph.Graph, k int, alg route.Algorithm) *Network {
	t.Helper()
	nw := New(g, k, alg)
	nw.Start()
	t.Cleanup(nw.Stop)
	if err := nw.Discover(); err != nil {
		t.Fatalf("discover: %v", err)
	}
	return nw
}

func TestDiscoveryMatchesOracleNeighbourhoods(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(16)
		g := gen.RandomConnected(rng, n, 0.2)
		k := 1 + rng.Intn(5)
		nw := startNetwork(t, g, k, route.Algorithm1())
		for _, v := range g.Vertices() {
			want := nbhd.Extract(g, v, k).G
			got := nw.View(v)
			if got == nil || !got.Equal(want) {
				t.Fatalf("discovered view at %d (k=%d) differs:\n got %v\nwant %v\n g=%v",
					v, k, got, want, g)
			}
		}
		nw.Stop()
	}
}

func TestSendMatchesCentralizedSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(12)
		g := gen.RandomConnected(rng, n, 0.2)
		alg := route.Algorithm1()
		k := alg.MinK(n)
		nw := startNetwork(t, g, k, alg)
		oracle := sim.Bind(alg, g, k)
		vs := g.Vertices()
		for i := 0; i < 6; i++ {
			s := vs[rng.Intn(len(vs))]
			dst := vs[rng.Intn(len(vs))]
			routeGot, err := nw.Send(s, dst)
			if err != nil {
				t.Fatalf("send %d->%d: %v (g=%v)", s, dst, err, g)
			}
			want := oracle.Run(s, dst)
			if want.Outcome != sim.Delivered {
				t.Fatalf("oracle failed %d->%d: %v", s, dst, want.Outcome)
			}
			if len(routeGot) != len(want.Route) {
				t.Fatalf("distributed route %v differs from centralized %v", routeGot, want.Route)
			}
			for j := range routeGot {
				if routeGot[j] != want.Route[j] {
					t.Fatalf("distributed route %v differs from centralized %v", routeGot, want.Route)
				}
			}
		}
		nw.Stop()
	}
}

func TestSendAllPairsAlgorithm2(t *testing.T) {
	g := gen.Lollipop(9, 4)
	alg := route.Algorithm2()
	nw := startNetwork(t, g, alg.MinK(g.N()), alg)
	for _, s := range g.Vertices() {
		for _, dst := range g.Vertices() {
			if s == dst {
				continue
			}
			r, err := nw.Send(s, dst)
			if err != nil {
				t.Fatalf("send %d->%d: %v", s, dst, err)
			}
			if r[0] != s || r[len(r)-1] != dst {
				t.Fatalf("route endpoints wrong: %v", r)
			}
		}
	}
}

func TestSendToSelf(t *testing.T) {
	g := gen.Path(5)
	nw := startNetwork(t, g, 2, route.Algorithm3())
	r, err := nw.Send(2, 2)
	if err != nil {
		t.Fatalf("self send: %v", err)
	}
	if len(r) != 1 || r[0] != 2 {
		t.Fatalf("self route = %v", r)
	}
}

func TestSendBeforeDiscoverFails(t *testing.T) {
	g := gen.Path(5)
	nw := New(g, 2, route.Algorithm3())
	nw.Start()
	defer nw.Stop()
	if _, err := nw.Send(0, 4); !errors.Is(err, ErrNotDiscovered) {
		t.Errorf("err = %v, want ErrNotDiscovered", err)
	}
}

func TestSendUnknownNode(t *testing.T) {
	g := gen.Path(5)
	nw := startNetwork(t, g, 2, route.Algorithm3())
	if _, err := nw.Send(0, 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := nw.Send(99, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestDiscoverBeforeStartFails(t *testing.T) {
	g := gen.Path(3)
	nw := New(g, 1, route.Algorithm3())
	defer nw.Stop()
	if err := nw.Discover(); err == nil {
		t.Error("expected error when discovering before Start")
	}
}

func TestDiscoverIdempotent(t *testing.T) {
	g := gen.Cycle(6)
	nw := startNetwork(t, g, 3, route.Algorithm3())
	if err := nw.Discover(); err != nil {
		t.Errorf("second Discover: %v", err)
	}
}

func TestStopIsIdempotentAndSendAfterStopFails(t *testing.T) {
	g := gen.Path(4)
	nw := New(g, 2, route.Algorithm3())
	nw.Start()
	if err := nw.Discover(); err != nil {
		t.Fatal(err)
	}
	nw.Stop()
	nw.Stop()
	if _, err := nw.Send(0, 3); !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v, want ErrStopped", err)
	}
}

func TestViewUnknownVertex(t *testing.T) {
	g := gen.Path(3)
	nw := startNetwork(t, g, 1, route.Algorithm3())
	if nw.View(42) != nil {
		t.Error("View of unknown vertex must be nil")
	}
}

func TestConcurrentSends(t *testing.T) {
	g := gen.Grid(4, 5)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(g.N()), alg)
	vs := g.Vertices()
	errs := make(chan error, len(vs))
	for i := range vs {
		go func(i int) {
			_, err := nw.Send(vs[i], vs[(i+7)%len(vs)])
			errs <- err
		}(i)
	}
	for range vs {
		if err := <-errs; err != nil {
			t.Errorf("concurrent send: %v", err)
		}
	}
}

func TestAlgorithm3RoutesShortestDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	g := gen.RandomConnected(rng, 18, 0.15)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(18), alg)
	vs := g.Vertices()
	for i := 0; i < 20; i++ {
		s := vs[rng.Intn(len(vs))]
		dst := vs[rng.Intn(len(vs))]
		r, err := nw.Send(s, dst)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		if len(r)-1 != g.Dist(s, dst) {
			t.Errorf("route %d->%d has %d hops, shortest is %d", s, dst, len(r)-1, g.Dist(s, dst))
		}
	}
}

func TestStatsCountDiscoveryAndForwards(t *testing.T) {
	g := gen.Cycle(10)
	alg := route.Algorithm3()
	k := alg.MinK(10)
	nw := New(g, k, alg)
	nw.Start()
	defer nw.Stop()
	if s := nw.Stats(); s.LSATransmissions != 0 || s.DataForwards != 0 {
		t.Fatalf("counters must start at zero: %+v", s)
	}
	if err := nw.Discover(); err != nil {
		t.Fatal(err)
	}
	afterDiscovery := nw.Stats()
	// Each node self-seeds once and forwards each of the origins it
	// relays to both neighbours: at least n, at most n + n·Σdeg.
	if afterDiscovery.LSATransmissions < int64(g.N()) {
		t.Errorf("discovery transmissions %d below n", afterDiscovery.LSATransmissions)
	}
	if max := int64(g.N() + g.N()*2*g.M()); afterDiscovery.LSATransmissions > max {
		t.Errorf("discovery transmissions %d above the flooding bound %d", afterDiscovery.LSATransmissions, max)
	}
	if afterDiscovery.DataForwards != 0 {
		t.Error("no data forwards before Send")
	}
	if _, err := nw.Send(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := nw.Stats().DataForwards; got != 5 {
		t.Errorf("data forwards = %d, want 5", got)
	}
}

func TestDiscoveryCostGrowsWithK(t *testing.T) {
	g := gen.Cycle(16)
	cost := func(k int) int64 {
		nw := New(g, k, route.Algorithm3())
		nw.Start()
		defer nw.Stop()
		if err := nw.Discover(); err != nil {
			t.Fatal(err)
		}
		return nw.Stats().LSATransmissions
	}
	small := cost(2)
	large := cost(8)
	if large <= small {
		t.Errorf("discovery cost should grow with k: k=2 -> %d, k=8 -> %d", small, large)
	}
}
