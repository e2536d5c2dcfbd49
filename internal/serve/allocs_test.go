package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"klocal/internal/churn"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/sim"
)

// Allocation gates of one warm request through the daemon's handler, on
// top of the httptest harness's own allocations. They cover request
// decoding (about 7), the engine's result clone (2 per route), boxing the
// reply for encoding/json, the reply's headers and write, and the
// recorder's header snapshot (3). The reply buffer is pooled.
const (
	// handlerRouteAllocGate: one /route.
	handlerRouteAllocGate = 19
	// handlerBatchAllocGate: one 16-pair /batch.
	handlerBatchAllocGate = 61
)

// TestHandlerAllocsGate pins the allocations of a warm /route and a
// warm 16-pair /batch through Handler on a prewarmed lollipop-512
// daemon (route-warm's deployment). The harness's allocations (recorder,
// request, body reader) are measured on a handler that does nothing and
// subtracted.
func TestHandlerAllocsGate(t *testing.T) {
	// The reply buffers stay pooled (replyBufs), and the race detector
	// drops pooled objects at random, so the counts hold only without it.
	if raceEnabled {
		t.Skip("replyBufs is a sync.Pool, which the race detector drains at random")
	}
	s, err := New(Config{Graph: GraphSpec{Kind: "lollipop", Size: 512}, Algorithms: []string{"alg2"}, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()

	rng := rand.New(rand.NewSource(1))
	var batch BatchRequest
	var routes [][]byte
	for i := 0; i < 16; i++ {
		p := [2]graph.Vertex{graph.Vertex(rng.Intn(512)), graph.Vertex(rng.Intn(512))}
		batch.Pairs = append(batch.Pairs, p)
		routes = append(routes, mustMarshal(t, RouteRequest{S: p[0], T: p[1]}))
	}
	batches := [][]byte{mustMarshal(t, batch)}

	// perRequest serves bodies round-robin and returns the mean
	// allocations per request, after one unmeasured pass that fills the
	// pools and checks every reply.
	perRequest := func(h http.Handler, path string, bodies [][]byte) float64 {
		serve := func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		for _, body := range bodies {
			if rec := serve(body); rec.Code != http.StatusOK {
				t.Fatalf("%s: code %d: %s", path, rec.Code, rec.Body)
			}
		}
		i := 0
		return testing.AllocsPerRun(200, func() {
			serve(bodies[i%len(bodies)])
			i++
		})
	}
	// No collection during the measurement, so pooled scratch and reply
	// buffers stay pooled.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	for _, tc := range []struct {
		path   string
		bodies [][]byte
		gate   float64
	}{
		{"/route", routes, handlerRouteAllocGate},
		{"/batch", batches, handlerBatchAllocGate},
	} {
		harness := perRequest(nop, tc.path, tc.bodies)
		got := perRequest(h, tc.path, tc.bodies) - harness
		if got > tc.gate {
			t.Errorf("%s allocates %.0f times per request beyond the harness's %.0f, gate %.0f", tc.path, got, harness, tc.gate)
		}
		t.Logf("%s: %.0f allocs/request beyond the harness's %.0f (gate %.0f)", tc.path, got, harness, tc.gate)
	}
}

// sinkResult keeps measured results on the heap.
var sinkResult *sim.Result

// TestPatchKeepsLanesWarm pins that a PATCH builds no engine. On
// churn-patch's deployment (a prewarmed 100×100 grid at k = 3) the
// first Do on each lane after a chord flap, for a pair whose walk reads
// only views the flap left clean, allocates exactly what Result.Clone
// does: the lanes keep their grown scratches across the swap.
func TestPatchKeepsLanesWarm(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "grid", Size: 100 * 100}, Algorithms: []string{"alg2"}, K: 3, Prewarm: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	eng := s.engines["alg2"]
	lanes := eng.Config().Workers
	// (99,97) → (99,99), within k: two Case-1 views in the corner far
	// from the chord (10,10)–(10,20) and its dirty k-balls.
	req := engine.Request{S: 9997, T: 9999}
	var epoch int64
	do := func() {
		resp, err := eng.Do(req, 0)
		if err != nil || resp.Result.Outcome != sim.Delivered {
			t.Fatalf("Do: %v (%v)", err, resp.Result)
		}
		sinkResult, epoch = resp.Result, resp.Epoch
	}
	// One goroutine takes the idle lanes in turn, so every lane's
	// scratch reaches its high-water mark for req here.
	for range 4 * lanes {
		do()
	}
	if _, _, _, err := s.ApplyDeltas([]churn.Delta{{Op: churn.AddEdge, U: 1010, V: 1020}}); err != nil {
		t.Fatal(err)
	}
	eng = s.engines["alg2"] // the engine serving after the PATCH
	clone := testing.AllocsPerRun(10, func() { sinkResult = sinkResult.Clone() })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range lanes {
		do()
	}
	runtime.ReadMemStats(&after)
	if epoch != 2 {
		t.Fatalf("routed on epoch %d after the PATCH, want 2", epoch)
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(lanes); got != clone {
		t.Fatalf("the first Do on each of %d lanes after a PATCH allocates %.2f times, Result.Clone %.0f", lanes, got, clone)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
