package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
)

func testGraph(n int) *graph.Graph {
	return gen.Lollipop(n-n/3, n/3)
}

func TestSnapshotDefaults(t *testing.T) {
	g := testGraph(18)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.K() != route.MinK2(g.N()) {
		t.Fatalf("k defaulted to %d, want threshold %d", snap.K(), route.MinK2(g.N()))
	}
	if snap.Graph() != g || snap.Algorithm().Name != "Algorithm2" || snap.Func() == nil {
		t.Fatal("snapshot accessors broken")
	}
	for _, st := range []bigraph.Store{nil, (*graph.Graph)(nil)} {
		if _, err := NewSnapshotStore(st, 1, route.Algorithm2(), SnapshotOptions{}); err == nil {
			t.Fatalf("nil network %#v must be rejected", st)
		}
	}
}

func TestSnapshotPrewarmAndCacheStats(t *testing.T) {
	g := testGraph(18)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs := snap.CacheStats(); cs.Size != int64(g.N()) {
		t.Fatalf("prewarmed cache size = %d, want %d", cs.Size, g.N())
	}
	// An algorithm without preprocessing reports zero stats.
	snap3, err := NewSnapshotStore(g, 0, route.Algorithm3(), SnapshotOptions{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs := snap3.CacheStats(); cs.Size != 0 {
		t.Fatalf("algorithm3 has no cache, got size %d", cs.Size)
	}
}

func TestRouteBatchDeliversEverything(t *testing.T) {
	g := testGraph(20)
	for _, alg := range []route.Algorithm{route.Algorithm1(), route.Algorithm1B(), route.Algorithm2(), route.Algorithm3()} {
		snap, err := NewSnapshotStore(g, 0, alg, SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reqs := Take(AllPairs(g), PairCount(g))
		resps, rep, err := RouteAll(snap, reqs, Config{Workers: 4, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != len(reqs) {
			t.Fatalf("%s: %d responses for %d requests", alg.Name, len(resps), len(reqs))
		}
		for i, r := range resps {
			if r.Request != reqs[i] {
				t.Fatalf("%s: response %d out of order: %+v vs %+v", alg.Name, i, r.Request, reqs[i])
			}
			if r.Result.Outcome != sim.Delivered {
				t.Fatalf("%s: %d->%d not delivered: %v (%v)", alg.Name, r.S, r.T, r.Result.Outcome, r.Result.Err)
			}
		}
		if got := rep.Gauge("delivery_rate"); got != 1.0 {
			t.Fatalf("%s: delivery_rate = %v", alg.Name, got)
		}
		if rep.Counter("requests") != int64(len(reqs)) {
			t.Fatalf("%s: requests counter = %d", alg.Name, rep.Counter("requests"))
		}
	}
}

func TestBatchMatchesSequentialRoute(t *testing.T) {
	// The engine must produce byte-identical walks to the sequential
	// simulator: same outcome, same route, for every pair.
	rng := rand.New(rand.NewSource(21))
	g := gen.RandomConnected(rng, 16, 0.12)
	alg := route.Algorithm1()
	k := alg.MinK(g.N())
	snap, err := NewSnapshotStore(g, k, alg, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := Take(Uniform(rand.New(rand.NewSource(2)), g), 200)
	resps, _, err := RouteAll(snap, reqs, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := alg.Bind(g, k)
	for i, r := range resps {
		want := sim.Run(g, sim.Func(f), reqs[i].S, reqs[i].T, sim.Options{
			DetectLoops: true, PredecessorAware: true,
		})
		if r.Result.Outcome != want.Outcome || r.Result.Len() != want.Len() {
			t.Fatalf("pair %d: engine %v/%d vs sequential %v/%d",
				i, r.Result.Outcome, r.Result.Len(), want.Outcome, want.Len())
		}
		for j := range want.Route {
			if r.Result.Route[j] != want.Route[j] {
				t.Fatalf("pair %d: route diverges at hop %d", i, j)
			}
		}
	}
}

func TestCacheAmortization(t *testing.T) {
	// Routing many messages must preprocess each vertex at most a
	// handful of times (concurrent same-vertex misses may double
	// compute), never once per message.
	g := testGraph(18)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := Take(Uniform(rand.New(rand.NewSource(3)), g), 500)
	if _, _, err := RouteAll(snap, reqs, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	cs := snap.CacheStats()
	if cs.Misses > 3*int64(g.N()) {
		t.Fatalf("cache misses %d ≫ vertex count %d: preprocessing not amortized", cs.Misses, g.N())
	}
	if cs.Hits < 10*cs.Misses {
		t.Fatalf("hit/miss = %d/%d: expected overwhelming hits on 500 messages", cs.Hits, cs.Misses)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	g := testGraph(12)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm3(), SnapshotOptions{})
	e := New(snap, Config{Workers: 2})
	go func() {
		for range e.Results() {
		}
	}()
	if err := e.Submit(Request{S: 0, T: 1}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Submit(Request{S: 0, T: 1}); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestBackpressureBoundsQueue(t *testing.T) {
	// With a tiny queue and slow consumption, Submit must block rather
	// than buffer unboundedly — verified by watching the submitter make
	// no progress until the consumer drains.
	g := testGraph(12)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm3(), SnapshotOptions{})
	e := New(snap, Config{Workers: 1, QueueDepth: 1})

	submitted := make(chan int, 64)
	go func() {
		for i := 0; i < 20; i++ {
			e.Submit(Request{S: 0, T: 1})
			submitted <- i
		}
		close(submitted)
	}()
	// Without consuming results, the submitter can get at most
	// queue(1) + results buffer(1) + in-flight(1) + one blocked ≈ 4 ahead.
	time.Sleep(50 * time.Millisecond)
	ahead := len(submitted)
	if ahead > 6 {
		t.Fatalf("submitter ran %d requests ahead of a stalled consumer; backpressure broken", ahead)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range e.Results() {
		}
	}()
	for range submitted {
	}
	e.Close()
	wg.Wait()
	if got := e.Report().Counter("requests"); got != 20 {
		t.Fatalf("routed %d requests, want 20", got)
	}
}

func TestRunWorkloadCountAndDuration(t *testing.T) {
	g := testGraph(16)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	e := New(snap, Config{Workers: 4})
	w := Uniform(rand.New(rand.NewSource(4)), g)
	if err := e.RunWorkload(w, 300, 0); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.Counter("requests") != 300 {
		t.Fatalf("requests = %d, want 300", rep.Counter("requests"))
	}
	if rep.Gauge("delivery_rate") != 1.0 {
		t.Fatalf("delivery rate %v", rep.Gauge("delivery_rate"))
	}
	if rep.Gauge("throughput_rps") <= 0 {
		t.Fatal("throughput gauge missing")
	}

	// Duration mode stops on its own.
	e2 := New(snap, Config{Workers: 4})
	if err := e2.RunWorkload(w, 0, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e2.Report().Counter("requests") == 0 {
		t.Fatal("duration-bounded run routed nothing")
	}
	// Neither bound set is an error.
	e3 := New(snap, Config{Workers: 1})
	if err := e3.RunWorkload(w, 0, 0); err == nil {
		t.Fatal("unbounded RunWorkload must be rejected")
	}
	e3.Close()
}

func TestConcurrentSubmitters(t *testing.T) {
	// Many goroutines submitting through one engine session (race-audit
	// coverage for the intake path; run under -race via make race).
	g := testGraph(16)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm1B(), SnapshotOptions{})
	e := New(snap, Config{Workers: 4, QueueDepth: 2})
	var drained sync.WaitGroup
	drained.Add(1)
	total := 0
	go func() {
		defer drained.Done()
		for range e.Results() {
			total++
		}
	}()
	var wg sync.WaitGroup
	vs := g.Vertices()
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 50; i++ {
				s := vs[r.Intn(len(vs))]
				d := vs[r.Intn(len(vs))]
				if s == d {
					continue
				}
				if err := e.Submit(Request{S: s, T: d}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	e.Close()
	drained.Wait()
	rep := e.Report()
	if int64(total) != rep.Counter("requests") {
		t.Fatalf("drained %d responses, counted %d requests", total, rep.Counter("requests"))
	}
	if rep.Counter("delivered") != rep.Counter("requests") {
		t.Fatalf("lost deliveries: %d/%d", rep.Counter("delivered"), rep.Counter("requests"))
	}
}

func TestAdversarialStretchMatchesTheorem4(t *testing.T) {
	// On the DilationPath instance the engine must report exactly the
	// paper's worst-case route length 2n−3k−1 for Algorithm 1.
	n := 32
	k := route.MinK1(n)
	g, w, err := Adversarial(n, k)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshotStore(g, k, route.Algorithm1(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resps, rep, err := RouteAll(snap, Take(w, 10), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*g.N() - 3*k - 1
	for _, r := range resps {
		if r.Result.Outcome != sim.Delivered {
			t.Fatalf("adversarial pair not delivered: %v", r.Result.Err)
		}
	}
	if maxHops := rep.Histograms["hops"].Max; maxHops != int64(want) {
		t.Fatalf("worst route length %d, Theorem 4 bound %d", maxHops, want)
	}
	if rep.Gauge("delivery_rate") != 1.0 {
		t.Fatal("adversarial workload must still deliver above threshold")
	}
}
