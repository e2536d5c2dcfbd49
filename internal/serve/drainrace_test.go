package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRetireSwapRace routes, PUTs, PATCHes and scrapes through the
// daemon's handler at once. Under -race this is the memory-safety proof
// for the engines' snapshot swaps; afterwards the one engine's counters
// reconcile exactly with the replies served across every generation,
// live and after Drain. make race runs it ten times.
func TestRetireSwapRace(t *testing.T) {
	srv, err := New(Config{
		Graph:      GraphSpec{Kind: "cycle", Size: 16},
		Algorithms: []string{"alg2"},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	call := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	var routed, delivered, swaps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Routers: every generation below has the vertices 0..15.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"s":%d,"t":%d}`, w, w+8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := call(http.MethodPost, "/route", body)
				var rr RouteReply
				if err := json.Unmarshal(rec.Body.Bytes(), &rr); rec.Code != http.StatusOK || err != nil {
					t.Errorf("route %s: code %d (%v): %s", body, rec.Code, err, rec.Body)
					return
				}
				routed.Add(1)
				if rr.Delivered {
					delivered.Add(1)
				}
			}
		}(w)
	}

	// Swapper: PUT a generation, then PATCH a chord onto it, as fast as
	// they build. A PATCH the current graph refuses (the wheel's hub
	// already has the chord) answers 400 and swaps nothing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		specs := []string{`{"kind":"cycle","size":16}`, `{"kind":"wheel","size":16}`, `{"kind":"path","size":16}`}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if rec := call(http.MethodPut, "/graph", specs[i%len(specs)]); rec.Code != http.StatusOK {
				t.Errorf("PUT: code %d: %s", rec.Code, rec.Body)
				return
			}
			rec := call(http.MethodPatch, "/graph", `{"deltas":[{"op":"add-edge","u":0,"v":8}]}`)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Errorf("PATCH: code %d: %s", rec.Code, rec.Body)
				return
			}
			swaps.Add(1)
		}
	}()

	// Scraper: reads the live shards while the snapshots swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rec := call(http.MethodGet, "/metrics?format=json", ""); rec.Code != http.StatusOK {
				t.Errorf("GET /metrics: code %d", rec.Code)
				return
			}
		}
	}()

	for !t.Failed() && (routed.Load() < 2000 || swaps.Load() < 100) {
		if rec := call(http.MethodGet, "/graph", ""); rec.Code != http.StatusOK {
			t.Errorf("GET /graph: code %d", rec.Code)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var m MetricsReply
	if err := json.Unmarshal(call(http.MethodGet, "/metrics?format=json", "").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	rep := m.Algorithms["alg2"]
	if got := rep.Counter("requests"); got != routed.Load() {
		t.Errorf("metrics requests = %d, routers got %d replies", got, routed.Load())
	}
	if got := rep.Counter("delivered"); got != delivered.Load() {
		t.Errorf("metrics delivered = %d, routers got %d deliveries", got, delivered.Load())
	}
	if m.HTTPRequests != routed.Load() {
		t.Errorf("http_requests = %d, want %d", m.HTTPRequests, routed.Load())
	}
	srv.Drain()
	if got := srv.FinalReports()[0].Counter("requests"); got != routed.Load() {
		t.Errorf("final requests = %d, routers got %d replies", got, routed.Load())
	}
}
