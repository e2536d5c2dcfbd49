package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"klocal/internal/graph"
)

// Allocation gates of one warm request through the daemon's handler, on
// top of the httptest harness's own allocations. They cover request
// decoding (about 7), the engine hop and its result clone, boxing the
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
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
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

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
