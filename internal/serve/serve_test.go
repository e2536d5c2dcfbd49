package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/verify"
)

// postJSON issues a JSON request and decodes a JSON reply, returning the
// status code alongside.
func postJSON(t *testing.T, method, url string, payload, into any) int {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("%s %s: bad reply %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonHotSwapUnderLoad is the end-to-end tentpole test: concurrent
// clients route over HTTP while PUT /graph swaps the topology under
// them. Every response must validate against the graph of the revision
// that served it (verify.CheckWalk — the torn-snapshot detector: a walk
// mixing two generations uses a non-edge of both), and the final
// /metrics totals must reconcile exactly with the summed responses.
func TestDaemonHotSwapUnderLoad(t *testing.T) {
	specA := GraphSpec{Kind: "cycle", Size: 24}
	specB := GraphSpec{Kind: "random", Size: 24, Seed: 5}
	gA, err := specA.Build()
	if err != nil {
		t.Fatal(err)
	}
	gB, err := specB.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Rev 1 is the boot deployment, rev 2 the swapped one.
	graphs := map[int64]*graph.Graph{1: gA, 2: gB}
	bound := DilationBound("alg2")

	srv, err := New(Config{Graph: specA, Algorithms: []string{"alg2"}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients, perClient = 8, 50
	var total, delivered, onNew atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				s := graph.Vertex(rng.Intn(24))
				u := graph.Vertex(rng.Intn(24))
				var rr RouteReply
				if code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: s, T: u}, &rr); code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", c, code)
					return
				}
				total.Add(1)
				g, ok := graphs[rr.Rev]
				if !ok {
					errs <- fmt.Errorf("client %d: unknown rev %d", c, rr.Rev)
					return
				}
				if rr.Rev == 2 {
					onNew.Add(1)
				}
				if !rr.Delivered {
					// Algorithm 2 at its own threshold delivers everywhere
					// (Theorem 7); a miss means a torn deployment.
					errs <- fmt.Errorf("client %d: %d -> %d undelivered (%s) on rev %d",
						c, s, u, rr.Outcome, rr.Rev)
					return
				}
				delivered.Add(1)
				if err := verify.CheckWalk(g, s, u, rr.Route, bound); err != nil {
					errs <- fmt.Errorf("client %d rev %d: %w", c, rr.Rev, err)
					return
				}
			}
		}(c)
	}

	// Swap mid-traffic.
	time.Sleep(20 * time.Millisecond)
	var swapped GraphReply
	if code := postJSON(t, "PUT", ts.URL+"/graph", specB, &swapped); code != http.StatusOK {
		t.Fatalf("swap status %d", code)
	}
	if swapped.Rev != 2 {
		t.Fatalf("swap rev = %d, want 2", swapped.Rev)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if onNew.Load() == 0 {
		t.Log("note: no request landed on the swapped graph (slow machine?)")
	}

	// /metrics must reconcile exactly: retired rev-1 shards + live rev-2
	// shards = every response the clients summed.
	var m MetricsReply
	if code := postJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	rep := m.Algorithms["alg2"]
	if rep == nil {
		t.Fatal("metrics missing alg2 report")
	}
	if got := rep.Counter("requests"); got != total.Load() {
		t.Errorf("metrics requests = %d, want %d", got, total.Load())
	}
	if got := rep.Counter("delivered"); got != delivered.Load() {
		t.Errorf("metrics delivered = %d, want %d", got, delivered.Load())
	}
	if m.HTTPRequests != total.Load() {
		t.Errorf("http_requests = %d, want %d", m.HTTPRequests, total.Load())
	}
	if m.Rev != 2 {
		t.Errorf("metrics rev = %d, want 2", m.Rev)
	}
	if h, ok := rep.Histograms["latency_ns"]; !ok || h.Count != total.Load() {
		t.Errorf("latency histogram count = %v, want %d", h.Count, total.Load())
	}
}

// TestBatchEndpoint checks POST /batch returns results in request order
// and counts every pair in the metrics.
func TestBatchEndpoint(t *testing.T) {
	srv, err := New(Config{Graph: GraphSpec{Kind: "grid", Size: 25}, Algorithms: []string{"alg2", "alg3"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pairs := [][2]graph.Vertex{{0, 24}, {24, 0}, {3, 3}, {12, 7}}
	var br BatchReply
	if code := postJSON(t, "POST", ts.URL+"/batch", BatchRequest{Pairs: pairs, Algo: "alg3"}, &br); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Algo != "alg3" || len(br.Results) != len(pairs) {
		t.Fatalf("batch reply algo=%s len=%d", br.Algo, len(br.Results))
	}
	g, _ := GraphSpec{Kind: "grid", Size: 25}.Build()
	for i, res := range br.Results {
		if res.S != pairs[i][0] || res.T != pairs[i][1] {
			t.Errorf("result %d is (%d, %d), want (%d, %d): order not preserved",
				i, res.S, res.T, pairs[i][0], pairs[i][1])
		}
		if !res.Delivered {
			t.Errorf("pair %d undelivered: %s", i, res.Outcome)
		}
		// Algorithm 3 routes shortest paths (Theorem 8).
		if err := verify.CheckWalk(g, res.S, res.T, res.Route, 1); err != nil {
			t.Errorf("pair %d: %v", i, err)
		}
	}

	var m MetricsReply
	postJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &m)
	if got := m.Algorithms["alg3"].Counter("requests"); got != int64(len(pairs)) {
		t.Errorf("alg3 requests = %d, want %d", got, len(pairs))
	}
	if got := m.Algorithms["alg2"].Counter("requests"); got != 0 {
		t.Errorf("alg2 requests = %d, want 0", got)
	}
	if m.HTTPRequests != 1 {
		t.Errorf("http_requests = %d, want 1 (batches count once)", m.HTTPRequests)
	}

	// Unknown algorithm and out-of-graph vertices are client errors.
	if code := postJSON(t, "POST", ts.URL+"/batch", BatchRequest{Pairs: pairs, Algo: "alg9"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown algo status %d, want 400", code)
	}
	if code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: 0, T: 999}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-graph vertex status %d, want 400", code)
	}
}

// TestAdmissionControl429 deterministically saturates a 1-lane engine
// — a swapped-in snapshot whose decision blocks at a gate holds the one
// lane — and checks the HTTP layer answers 429 within the admission
// budget, then recovers once the gate opens.
func TestAdmissionControl429(t *testing.T) {
	srv, err := New(Config{
		Graph:           GraphSpec{Kind: "path", Size: 8},
		Algorithms:      []string{"alg3"},
		Workers:         1,
		AdmissionBudget: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	eng := srv.engines["alg3"]
	orig := eng.Snapshot()
	entered, open := make(chan struct{}, 1), make(chan struct{})
	gated, err := engine.NewSnapshotStore(orig.Store(), 1, route.Algorithm{
		Name: "gated",
		MinK: func(int) int { return 1 },
		Over: func(*prep.Preprocessor) route.Func {
			return func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				entered <- struct{}{}
				<-open
				return t, nil
			}
		},
	}, engine.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SwapSnapshot(gated)
	held := make(chan error, 1)
	go func() {
		_, err := eng.Do(engine.Request{S: 0, T: 1}, 0)
		held <- err
	}()
	<-entered // the one lane waits at the gate

	start := time.Now()
	code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: 0, T: 7}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429", code)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("rejection took %v, want ≈ the 30ms budget", wait)
	}

	// Restore the real snapshot and open the gate; the daemon must
	// recover.
	eng.SwapSnapshot(orig)
	close(open)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	var rr RouteReply
	if code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: 0, T: 7}, &rr); code != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200", code)
	}
	if !rr.Delivered {
		t.Fatalf("post-drain route undelivered: %s", rr.Outcome)
	}

	var m MetricsReply
	postJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &m)
	if m.HTTPRejections != 1 {
		t.Errorf("http_rejections = %d, want 1", m.HTTPRejections)
	}
}

// TestNewRejectsRepeatedAlgorithm: an algorithm listed twice would get
// two engines, and its reports would count every request twice.
func TestNewRejectsRepeatedAlgorithm(t *testing.T) {
	if _, err := New(Config{Graph: GraphSpec{Kind: "path", Size: 8}, Algorithms: []string{"alg2", "alg3", "alg2"}}); err == nil {
		t.Fatal("New accepted alg2 twice")
	}
}

// TestFailedNewLeaksNoGoroutine: New builds each algorithm's engine
// before binding the next, so a later algorithm that fails to bind
// must not leave the earlier engines running anything.
func TestFailedNewLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := New(Config{
		Graph:      GraphSpec{Kind: "path", Size: 8},
		Algorithms: []string{"alg2", "alg3", "bogus"},
		Workers:    4,
	})
	if err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after a failed New, %d before", after, before)
	}
}

// parked is a route a test holds mid-walk: the engine's next decision
// signals entered, then waits for release. Tests defer release after
// deferring Drain, so a failing test frees the route before Drain waits
// for it.
type parked struct {
	entered, open chan struct{}
	once          sync.Once
	// epoch is the engine's number for the snapshot the route runs on.
	epoch int64
}

func (p *parked) release() { p.once.Do(func() { close(p.open) }) }

// patchWhileParked PATCHes deltas into the daemon at url while park
// holds a route on the old epoch. Nothing may wait for that route, so
// the PATCH must reply within 10 s.
func patchWhileParked(t *testing.T, url string, deltas ...DeltaSpec) DeltaReply {
	t.Helper()
	var dr DeltaReply
	done := make(chan int, 1)
	go func() { done <- postJSON(t, http.MethodPatch, url+"/graph", DeltaRequest{Deltas: deltas}, &dr) }()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("PATCH: %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PATCH waited for a route parked on the old epoch")
	}
	return dr
}

// parkNextDecision swaps into eng a snapshot of its current topology,
// locality and algorithm whose first decision waits at a gate and then
// decides as the algorithm does, so the walk it parks stays valid.
func parkNextDecision(t *testing.T, eng *engine.Engine) *parked {
	t.Helper()
	cur := eng.Snapshot()
	p := &parked{entered: make(chan struct{}, 1), open: make(chan struct{})}
	var armed atomic.Bool
	armed.Store(true)
	alg := cur.Algorithm()
	over := alg.Over
	alg.Over = func(pre *prep.Preprocessor) route.Func {
		decide := over(pre)
		return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
			if armed.CompareAndSwap(true, false) {
				p.entered <- struct{}{}
				<-p.open
			}
			return decide(s, t, v, view, sc)
		}
	}
	snap, err := engine.NewSnapshotStore(cur.Store(), cur.K(), alg, engine.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.epoch = eng.SwapSnapshot(snap)
	return p
}

// TestDrainLifecycle checks the shutdown path: readyz flips to 503,
// routing refuses, FinalReports carries the cumulative totals, and
// Drain is idempotent.
func TestDrainLifecycle(t *testing.T) {
	srv, err := New(Config{Graph: GraphSpec{Kind: "wheel", Size: 12}, Algorithms: []string{"alg1b"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := postJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz = %d before drain", code)
	}
	var rr RouteReply
	if code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: 1, T: 7, Trace: true}, &rr); code != http.StatusOK {
		t.Fatalf("route status %d", code)
	}
	if len(rr.Trace) != len(rr.Route) {
		t.Errorf("trace has %d hops, route %d", len(rr.Trace), len(rr.Route))
	}

	srv.Drain()
	srv.Drain() // idempotent
	if code := postJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d after drain, want 503", code)
	}
	if code := postJSON(t, "POST", ts.URL+"/route", RouteRequest{S: 1, T: 7}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("route after drain = %d, want 503", code)
	}
	if code := postJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz = %d after drain, want 200 (process still alive)", code)
	}

	reps := srv.FinalReports()
	if len(reps) != 1 {
		t.Fatalf("FinalReports len = %d", len(reps))
	}
	if got := reps[0].Counter("requests"); got != 1 {
		t.Errorf("final requests = %d, want 1", got)
	}
	// /metrics keeps serving the cumulative totals after drain.
	var m MetricsReply
	if code := postJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics after drain: %d", code)
	}
	if got := m.Algorithms["alg1b"].Counter("requests"); got != 1 {
		t.Errorf("metrics after drain requests = %d, want 1", got)
	}
}

// TestGraphSpecBuild covers the generator table and its error paths.
func TestGraphSpecBuild(t *testing.T) {
	for _, kind := range []string{"lollipop", "cycle", "path", "grid", "spider", "wheel", "barbell", "complete", "random", "tree"} {
		g, err := GraphSpec{Kind: kind, Size: 30, Seed: 2}.Build()
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if !g.Connected() {
			t.Errorf("%s: disconnected", kind)
		}
	}
	if _, err := (GraphSpec{Kind: "möbius"}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (GraphSpec{Kind: "edges", Edges: [][2]int64{{1, 1}}}).Build(); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := (GraphSpec{Edges: [][2]int64{{0, 1}, {2, 3}}}).Build(); err == nil {
		t.Error("disconnected edge list accepted")
	}
	g, err := (GraphSpec{Edges: [][2]int64{{0, 1}, {1, 2}, {2, 0}}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Errorf("triangle built as n=%d m=%d", g.N(), g.M())
	}
	if _, err := AlgorithmByName("alg4"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
