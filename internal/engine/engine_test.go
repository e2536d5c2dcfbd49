package engine

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Algorithm 3 decides over the same cache, so it prewarms too.
	snap3, err := NewSnapshotStore(g, 0, route.Algorithm3(), SnapshotOptions{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs := snap3.CacheStats(); cs.Size != int64(g.N()) {
		t.Fatalf("prewarmed algorithm3 cache size = %d, want %d", cs.Size, g.N())
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
		resps, rep, err := RouteAll(snap, reqs, Config{Workers: 4})
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
	f := sim.Bind(alg, g, k)
	for i, r := range resps {
		want := f.Run(reqs[i].S, reqs[i].T)
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

// TestSubmitAfterCloseFails: Do, DoBatch and RunWorkload after Close
// fail with ErrClosed whatever their budget, and Close is idempotent.
func TestSubmitAfterCloseFails(t *testing.T) {
	g := testGraph(12)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm3(), SnapshotOptions{})
	e := New(snap, Config{Workers: 2})
	req := Request{S: 0, T: 1}
	if _, err := e.Do(req, 0); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	for _, budget := range []time.Duration{0, time.Millisecond} {
		if _, err := e.Do(req, budget); !errors.Is(err, ErrClosed) {
			t.Fatalf("Do after Close (budget %v): %v, want ErrClosed", budget, err)
		}
		if _, err := e.DoBatch([]Request{req, req}, budget); !errors.Is(err, ErrClosed) {
			t.Fatalf("DoBatch after Close (budget %v): %v, want ErrClosed", budget, err)
		}
	}
	if err := e.RunWorkload(Uniform(rand.New(rand.NewSource(1)), g), 10, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunWorkload after Close: %v, want ErrClosed", err)
	}
	if got := e.Report().Counter("requests"); got != 1 {
		t.Fatalf("requests = %d, want the 1 routed before Close", got)
	}
}

// TestBackpressureBoundsQueue: the lanes bound concurrency. With all W
// lanes held at gated decisions, the (W+1)th caller gets ErrSaturated
// within its budget; callers with no budget wait and all route once the
// gate opens, never more than W at once.
func TestBackpressureBoundsQueue(t *testing.T) {
	const lanes, waiters = 3, 5
	gt := newGate()
	e := New(gt.snapshot(t, gen.Path(2)), Config{Workers: lanes})
	var held []<-chan error
	for range lanes {
		held = append(held, hold(e))
	}
	gt.await(lanes)
	if _, err := e.Do(Request{S: 0, T: 1}, 10*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("caller %d of %d lanes got %v, want ErrSaturated", lanes+1, lanes, err)
	}
	for range waiters {
		held = append(held, hold(e))
	}
	gt.release()
	for _, done := range held {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p := gt.peak.Load(); p != lanes {
		t.Fatalf("%d routes ran at once on %d lanes", p, lanes)
	}
	if got := e.Report().Counter("requests"); got != lanes+waiters {
		t.Fatalf("routed %d requests, want %d", got, lanes+waiters)
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
	// Many goroutines calling Do and DoBatch on one engine session
	// (race-audit coverage for the lanes; run under -race via make race).
	g := testGraph(16)
	snap, _ := NewSnapshotStore(g, 0, route.Algorithm1B(), SnapshotOptions{})
	e := New(snap, Config{Workers: 4})
	var routed atomic.Int64
	var wg sync.WaitGroup
	vs := g.Vertices()
	for p := 0; p < 6; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 50; i++ {
				reqs := make([]Request, 1+i%3)
				for j := range reqs {
					reqs[j] = Request{S: vs[r.Intn(len(vs))], T: vs[r.Intn(len(vs))]}
				}
				out := []Response{{}}
				var err error
				if len(reqs) == 1 {
					out[0], err = e.Do(reqs[0], 0)
				} else {
					out, err = e.DoBatch(reqs, 0)
				}
				if err != nil {
					t.Errorf("caller %d: %v", p, err)
					return
				}
				for j := range out {
					if out[j].Request != reqs[j] {
						t.Errorf("caller %d: slot %d holds %+v, want %+v", p, j, out[j].Request, reqs[j])
						return
					}
				}
				routed.Add(int64(len(out)))
			}
		}(p)
	}
	wg.Wait()
	rep := e.Report()
	if routed.Load() != rep.Counter("requests") {
		t.Fatalf("callers got %d responses, counted %d requests", routed.Load(), rep.Counter("requests"))
	}
	if rep.Counter("delivered") != rep.Counter("requests") {
		t.Fatalf("lost deliveries: %d/%d", rep.Counter("delivered"), rep.Counter("requests"))
	}
}

// TestNewStartsNoGoroutine: an engine is its lanes; callers route on
// their own goroutines.
func TestNewStartsNoGoroutine(t *testing.T) {
	snap, err := NewSnapshotStore(testGraph(12), 0, route.Algorithm3(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	e := New(snap, Config{Workers: 8})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	e.Close()
}

// TestLanesSwapAndClose drives Do and DoBatch from eight goroutines over
// four lanes while the snapshot is swapped twice and the engine is then
// closed with every lane held at a gated decision. No response is lost
// or duplicated, every call after Close fails with ErrClosed, Close
// waits for the gated routes, and the report counts exactly the
// requests of the successful calls. make race runs it ten times.
func TestLanesSwapAndClose(t *testing.T) {
	const lanes, callers = 4, 8
	g := testGraph(20)
	snapA, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := NewSnapshotStore(g, 0, route.Algorithm1B(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gt := newGate()
	gated := gt.snapshot(t, g)
	e := New(snapA, Config{Workers: lanes})

	vs := g.Vertices()
	var routed atomic.Int64
	// One value per caller once it has seen ErrClosed.
	closedSeen := make(chan struct{}, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; ; i++ {
				reqs := make([]Request, 1+rng.Intn(4))
				for j := range reqs {
					reqs[j] = Request{S: vs[rng.Intn(len(vs))], T: vs[rng.Intn(len(vs))]}
				}
				out := []Response{{}}
				var err error
				if i%2 == 0 {
					reqs = reqs[:1]
					out[0], err = e.Do(reqs[0], 0)
				} else {
					out, err = e.DoBatch(reqs, 0)
				}
				if errors.Is(err, ErrClosed) {
					closedSeen <- struct{}{}
					if _, err := e.Do(reqs[0], time.Second); !errors.Is(err, ErrClosed) {
						t.Errorf("caller %d: Do after Close: %v, want ErrClosed", c, err)
					}
					if _, err := e.DoBatch(reqs, time.Second); !errors.Is(err, ErrClosed) {
						t.Errorf("caller %d: DoBatch after Close: %v, want ErrClosed", c, err)
					}
					return
				}
				// A failed check keeps the caller looping, so it still
				// reaches Close and the test fails instead of hanging.
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
					continue
				}
				if len(out) != len(reqs) {
					t.Errorf("caller %d: %d responses for %d requests", c, len(out), len(reqs))
					continue
				}
				for j := range out {
					if out[j].Request != reqs[j] || out[j].Index != j {
						t.Errorf("caller %d: slot %d holds %+v at index %d, want %+v", c, j, out[j].Request, out[j].Index, reqs[j])
					}
				}
				routed.Add(int64(len(out)))
			}
		}(c)
	}
	awaitRouted := func(n int64) {
		for routed.Load() < n {
			runtime.Gosched()
		}
	}

	awaitRouted(200)
	e.SwapSnapshot(snapB)
	awaitRouted(routed.Load() + 200)
	e.SwapSnapshot(gated)
	gt.await(lanes) // every lane now holds a route waiting at the gate

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// The callers without a lane were waiting for one: Close wakes them.
	for range callers - lanes {
		<-closedSeen
	}
	select {
	case <-closed:
		t.Fatal("Close returned while gated routes held every lane")
	default:
	}
	gt.release()
	<-closed
	wg.Wait()
	if got := len(closedSeen); got != lanes {
		t.Fatalf("%d lane holders saw ErrClosed after the gate opened, want %d", got, lanes)
	}
	if got := e.Report().Counter("requests"); got != routed.Load() {
		t.Fatalf("requests = %d, callers got %d responses", got, routed.Load())
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
