package netsim

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/route"
	"klocal/internal/sim"
	"klocal/internal/verify"
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

// TestConcurrentSendsThroughCrashAndRestart: eight goroutines send
// across a grid while a ninth crashes and restarts a node on their
// paths. Every reply is a valid walk on g or a typed node-down failure.
func TestConcurrentSendsThroughCrashAndRestart(t *testing.T) {
	g := gen.Grid(4, 5)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(g.N()), alg)
	const victim = graph.Vertex(7) // interior: on most row- and column-crossing paths
	vs := g.Vertices()
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				if err := nw.Restart(victim); err != nil {
					t.Error(err)
				}
				return
			default:
			}
			if err := nw.Crash(victim); err != nil {
				t.Error(err)
			}
			runtime.Gosched()
			if err := nw.Restart(victim); err != nil {
				t.Error(err)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s, d := vs[(w+3*i)%len(vs)], vs[(7*w+i+11)%len(vs)]
				r, err := nw.Send(s, d)
				if err != nil {
					if !errors.Is(err, ErrNodeDown) {
						t.Errorf("send %d->%d: %v, want a walk or ErrNodeDown", s, d, err)
					}
					continue
				}
				if err := verify.CheckWalk(g, s, d, r, 0); err != nil {
					t.Errorf("send %d->%d: %v", s, d, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-toggled
}

// TestNetworkStartsNoGoroutine: discovery and sends run on the caller's
// goroutine, so a started, discovered network adds no goroutine.
func TestNetworkStartsNoGoroutine(t *testing.T) {
	g := gen.Grid(4, 5)
	alg := route.Algorithm3()
	before := runtime.NumGoroutine()
	nw := New(g, alg.MinK(g.N()), alg)
	nw.Start()
	defer nw.Stop()
	if err := nw.Discover(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Send(0, 19); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before New, %d after Start, Discover and Send", before, after)
	}
}

// TestDiscoveryMemoryIsLinear bounds what New, Start and Discover
// allocate on a 400-node cycle: discovery's memory grows with the
// messages it sends, not with n per node.
func TestDiscoveryMemoryIsLinear(t *testing.T) {
	g := gen.Cycle(400)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw := New(g, 4, route.Algorithm3())
	nw.Start()
	err := nw.Discover()
	runtime.ReadMemStats(&after)
	nw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Cycle(400), k=4: %.1f MB allocated", float64(got)/(1<<20))
	if got >= 16<<20 {
		t.Errorf("discovery allocated %.1f MB, want under 16 MB", float64(got)/(1<<20))
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
	lsas, acks := floodCost(g, k)
	if afterDiscovery.LSATransmissions != lsas || afterDiscovery.AckTransmissions != acks {
		t.Errorf("discovery sent %d announcements and %d acks, want exactly %d and %d",
			afterDiscovery.LSATransmissions, afterDiscovery.AckTransmissions, lsas, acks)
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
	// On C_n every origin's flood is relayed by the 2(k−2)+1 nodes within
	// distance k−2, each to both neighbours: n + 2n(2k−3) announcements.
	for _, tc := range []struct {
		k    int
		want int64
	}{{2, 48}, {8, 432}} {
		if lsas, _ := floodCost(g, tc.k); lsas != tc.want {
			t.Fatalf("closed form at k=%d gives %d, want %d", tc.k, lsas, tc.want)
		}
		if got := cost(tc.k); got != tc.want {
			t.Errorf("k=%d: discovery sent %d announcements, want exactly %d", tc.k, got, tc.want)
		}
	}
}

// floodCost is the zero-fault discovery cost in closed form. Every node
// seeds its own announcement, and the queue delivers each origin's flood
// in breadth-first order, so a node first hears an origin along a
// shortest path and relays that copy to all its neighbours iff it lies
// within distance k−2: n + Σ_o Σ_{u : dist(o,u) ≤ k−2} deg(u)
// announcements, each but the n seeds acknowledged once.
func floodCost(g *graph.Graph, k int) (lsas, acks int64) {
	lsas = int64(g.N())
	for _, o := range g.Vertices() {
		if k < 2 {
			break // a TTL-0 seed reaches no one
		}
		for u := range g.BFSBounded(o, k-2) {
			lsas += int64(g.Deg(u))
		}
	}
	return lsas, lsas - int64(g.N())
}

// TestZeroPlanDiscoveryCountsAreExact pins discovery's cost as an
// invariant: on perfect links every family at every k sends exactly the
// closed-form announcements and acks and settles in round 0.
func TestZeroPlanDiscoveryCountsAreExact(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(12)},
		{"cycle", gen.Cycle(12)},
		{"spider", gen.Spider(4, 3)},
		{"grid", gen.Grid(5, 6)},
		{"random", gen.RandomConnected(rand.New(rand.NewSource(5)), 30, 0.2)},
		{"complete", gen.Complete(8)},
		{"lollipop", gen.Lollipop(9, 4)},
		{"wheel", gen.Wheel(12)},
	}
	alg := route.Algorithm3()
	for _, f := range families {
		for _, k := range []int{1, 2, 3, 5, 8} {
			nw := New(f.g, k, alg)
			nw.Start()
			if err := nw.Discover(); err != nil {
				t.Fatalf("%s k=%d: %v", f.name, k, err)
			}
			st := nw.Stats()
			nw.Stop()
			lsas, acks := floodCost(f.g, k)
			if st.LSATransmissions != lsas || st.AckTransmissions != acks || st.DiscoveryRounds != 0 {
				t.Errorf("%s k=%d: %d announcements, %d acks, %d rounds; want %d, %d, 0",
					f.name, k, st.LSATransmissions, st.AckTransmissions, st.DiscoveryRounds, lsas, acks)
			}
			if st.LSARetransmissions != 0 || st.Dropped != 0 || st.Duplicated != 0 || st.Delayed != 0 {
				t.Errorf("%s k=%d: zero plan shows fault activity: %+v", f.name, k, st)
			}
		}
	}
	// A few of the counts, written out.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
		want int64
	}{
		{"cycle(12)", gen.Cycle(12), 6, 228},
		{"wheel(12)", gen.Wheel(12), 5, 540},
		{"grid(5,6)", gen.Grid(5, 6), 8, 2810},
		{"random(30, 0.2, seed 5)", gen.RandomConnected(rand.New(rand.NewSource(5)), 30, 0.2), 8, 6810},
	} {
		if lsas, _ := floodCost(tc.g, tc.k); lsas != tc.want {
			t.Errorf("%s at k=%d: closed form gives %d announcements, want %d", tc.name, tc.k, lsas, tc.want)
		}
	}
}
