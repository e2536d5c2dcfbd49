package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"klocal/internal/churn"
	"klocal/internal/graph"
)

func TestPatchGraphDeltas(t *testing.T) {
	// K is pinned small: at the default threshold locality (k ~ n/3) the
	// radius-k balls of a delta's endpoints cover this whole graph and the
	// "dirty < n" locality assertion below would be vacuous.
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 40}, K: 3, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var g0 GraphReply
	if code := postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &g0); code != http.StatusOK {
		t.Fatalf("GET /graph: %d", code)
	}
	if g0.Epoch == 0 {
		t.Fatal("initial generation reports epoch 0")
	}

	// A chord plus a cut: the incremental path must apply both, bump the
	// epoch, and invalidate strictly fewer views than n.
	var dr DeltaReply
	code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "add-edge", U: 0, V: 10},
		{Op: "remove-edge", U: 5, V: 6},
	}}, &dr)
	if code != http.StatusOK {
		t.Fatalf("PATCH /graph: %d", code)
	}
	if dr.Epoch != g0.Epoch+1 {
		t.Fatalf("PATCH epoch = %d, want %d", dr.Epoch, g0.Epoch+1)
	}
	if dr.Applied != 2 || dr.Dirty == 0 || dr.Dirty >= g0.N {
		t.Fatalf("PATCH applied=%d dirty=%d n=%d: dirty set must be non-empty and local", dr.Applied, dr.Dirty, g0.N)
	}
	if dr.N != g0.N || dr.M != g0.M {
		t.Fatalf("PATCH n=%d m=%d, want n=%d m=%d", dr.N, dr.M, g0.N, g0.M)
	}

	// Routes served after the PATCH carry the new epoch and use the new
	// topology: 0 and 10 are now adjacent.
	var rr RouteReply
	if code := postJSON(t, http.MethodPost, ts.URL+"/route", RouteRequest{S: 0, T: 10}, &rr); code != http.StatusOK {
		t.Fatalf("POST /route: %d", code)
	}
	if rr.Epoch != dr.Epoch {
		t.Fatalf("route epoch = %d, want %d", rr.Epoch, dr.Epoch)
	}
	if !rr.Delivered {
		t.Fatalf("route 0->10 failed after adding the edge: %+v", rr)
	}

	// Vertex arrival then an edge to it.
	code = postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "add-vertex", U: 100},
		{Op: "add-edge", U: 100, V: 0},
	}}, &dr)
	if code != http.StatusOK || dr.N != g0.N+1 {
		t.Fatalf("vertex arrival: code=%d n=%d", code, dr.N)
	}

	// Invalid batches are all-or-nothing: nothing applied, epoch parked.
	before := dr.Epoch
	if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "add-edge", U: 1, V: 2},
		{Op: "remove-edge", U: 40, V: 41},
	}}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: code=%d, want 400", code)
	}
	if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "frobnicate", U: 1, V: 2},
	}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown op: code=%d, want 400", code)
	}
	if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: code=%d, want 400", code)
	}
	var g1 GraphReply
	postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &g1)
	if g1.Epoch != before {
		t.Fatalf("rejected batches moved the epoch: %d -> %d", before, g1.Epoch)
	}

	// PUT still bumps the same counter.
	var g2 GraphReply
	if code := postJSON(t, http.MethodPut, ts.URL+"/graph", GraphSpec{Kind: "grid", Size: 16}, &g2); code != http.StatusOK {
		t.Fatalf("PUT /graph: %d", code)
	}
	if g2.Epoch != before+1 {
		t.Fatalf("PUT epoch = %d, want %d", g2.Epoch, before+1)
	}
}

// TestPatchUnderLoad drives routing traffic while PATCH deltas flap a
// chord on and off: every response must come from a coherent generation
// (no 5xx), and the server must end healthy.
func TestPatchUnderLoad(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 24}, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pair := [2]int64{int64(w), int64(w + 12)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rr RouteReply
				code := postJSON(t, http.MethodPost, ts.URL+"/route",
					RouteRequest{S: graph.Vertex(pair[0]), T: graph.Vertex(pair[1])}, &rr)
				if code != http.StatusOK {
					t.Errorf("route during churn: %d", code)
					return
				}
			}
		}(w)
	}
	on := false
	for i := 0; i < 25; i++ {
		op := "add-edge"
		if on {
			op = "remove-edge"
		}
		var dr DeltaReply
		if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
			{Op: op, U: 0, V: 12},
		}}, &dr); code != http.StatusOK {
			t.Fatalf("PATCH %d (%s): %d", i, op, code)
		}
		on = !on
	}
	close(stop)
	wg.Wait()
}

// ErrsToChurn sanity-checks the wire op mapping stays total.
func TestDeltaSpecMapping(t *testing.T) {
	for _, op := range []string{"add-edge", "remove-edge", "add-vertex", "remove-vertex"} {
		d, err := DeltaSpec{Op: op, U: 1, V: 2}.Delta()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if d.String() == "" {
			t.Fatalf("%s: empty string form", op)
		}
	}
	if _, err := (DeltaSpec{Op: "nope"}).Delta(); err == nil {
		t.Fatal("unknown op accepted")
	}
	// The churn sentinel errors surface through ApplyDeltas.
	if _, ok := interface{}(churn.ErrEdgeMissing).(error); !ok {
		t.Fatal("churn error type")
	}
}

// TestReservedLabelRejected pins that graph.NoVertex, the routing
// code's "no predecessor / no next hop" sentinel, cannot enter a
// topology through PATCH /graph or through PUT /graph's explicit edge
// list: both reply 400 with churn's typed error and leave the epoch.
func TestReservedLabelRejected(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 12}, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var g0 GraphReply
	postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &g0)

	if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "add-edge", U: 0, V: graph.NoVertex},
	}}, nil); code != http.StatusBadRequest {
		t.Fatalf("PATCH attaching NoVertex: code=%d, want 400", code)
	}
	_, _, _, err = s.ApplyDeltas([]churn.Delta{{Op: churn.AddVertex, U: graph.NoVertex}})
	if !errors.Is(err, churn.ErrReservedLabel) {
		t.Fatalf("ApplyDeltas(add-vertex NoVertex) = %v, want ErrReservedLabel", err)
	}

	spec := GraphSpec{Kind: "edges", Edges: [][2]int64{{0, 1}, {1, 2}, {2, int64(graph.NoVertex)}}}
	if code := postJSON(t, http.MethodPut, ts.URL+"/graph", spec, nil); code != http.StatusBadRequest {
		t.Fatalf("PUT with a NoVertex edge: code=%d, want 400", code)
	}
	if _, err := spec.Build(); !errors.Is(err, churn.ErrReservedLabel) {
		t.Fatalf("GraphSpec.Build with a NoVertex edge = %v, want ErrReservedLabel", err)
	}

	var g1 GraphReply
	postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &g1)
	if g1.Epoch != g0.Epoch {
		t.Fatalf("rejected requests moved the epoch: %d -> %d", g0.Epoch, g1.Epoch)
	}
}

// TestApplyNSExcludesDrain holds a reference on the old generation for
// longer than a PATCH takes to apply. The reply must wait for that
// drain, but its apply_ns must stop at the publish and not include it.
func TestApplyNSExcludesDrain(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 40}, K: 3, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const hold = 400 * time.Millisecond
	old, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(hold)
		old.release()
	}()
	start := time.Now()
	var dr DeltaReply
	if code := postJSON(t, http.MethodPatch, ts.URL+"/graph", DeltaRequest{Deltas: []DeltaSpec{
		{Op: "add-edge", U: 0, V: 20},
	}}, &dr); code != http.StatusOK {
		t.Fatalf("PATCH: %d", code)
	}
	wall := time.Since(start)
	<-released
	if wall < hold {
		t.Fatalf("PATCH replied after %v, before the old generation's %v drain", wall, hold)
	}
	if got := time.Duration(dr.ApplyNS); got >= hold/2 {
		t.Fatalf("apply_ns = %v with a %v drain pending: it includes the drain", got, hold)
	}
}
