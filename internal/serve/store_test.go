package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/verify"
)

// writeCSR materializes a small generated graph as a .csr file.
func writeCSR(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := bigraph.FromGraph(g).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFileDeployment boots the daemon on a kind "file" spec (the
// store-backed path behind klocald -graph-file x.csr) and checks the
// degraded contract: routing and vertex validation work, /graph reports
// the store's size, traces and distances are absent, and a hot-swap from
// file-backed to generator-backed (and back) releases cleanly.
func TestFileDeployment(t *testing.T) {
	g := gen.Cycle(20)
	path := writeCSR(t, g)

	s, err := New(Config{
		Graph:      GraphSpec{Kind: "file", Path: path},
		Algorithms: []string{"alg2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var gr GraphReply
	if code := postJSON(t, "GET", ts.URL+"/graph", nil, &gr); code != 200 {
		t.Fatalf("GET /graph: %d", code)
	}
	if gr.N != g.N() || gr.M != g.M() {
		t.Fatalf("file deployment reports n=%d m=%d, want %d, %d", gr.N, gr.M, g.N(), g.M())
	}
	if gr.Spec.Kind != "file" || gr.Spec.Path != path {
		t.Fatalf("spec echo: %+v", gr.Spec)
	}

	var rr RouteReply
	if code := postJSON(t, "POST", ts.URL+"/route",
		RouteRequest{S: 0, T: 10, Trace: true}, &rr); code != 200 {
		t.Fatalf("POST /route: %d", code)
	}
	if !rr.Delivered {
		t.Fatalf("route 0->10 on cycle at threshold: %s (%s)", rr.Outcome, rr.Err)
	}
	if rr.Dist != 0 || rr.Stretch != 0 {
		t.Fatalf("store-backed reply leaked dist=%d stretch=%v", rr.Dist, rr.Stretch)
	}
	if len(rr.Trace) != 0 {
		t.Fatalf("store-backed reply carried a trace (%d hops)", len(rr.Trace))
	}

	// Vertex validation goes through the store.
	if code := postJSON(t, "POST", ts.URL+"/route",
		RouteRequest{S: 0, T: 999}, nil); code != 400 {
		t.Fatalf("absent vertex accepted: %d", code)
	}

	// Swap file → generator: traces come back; file → file keeps working.
	var swapped GraphReply
	if code := postJSON(t, "PUT", ts.URL+"/graph",
		GraphSpec{Kind: "cycle", Size: 16}, &swapped); code != 200 {
		t.Fatalf("swap to generator: %d", code)
	}
	if code := postJSON(t, "POST", ts.URL+"/route",
		RouteRequest{S: 0, T: 8, Trace: true}, &rr); code != 200 {
		t.Fatalf("post-swap route: %d", code)
	}
	if !rr.Delivered || len(rr.Trace) == 0 || rr.Dist == 0 {
		t.Fatalf("generator-backed route lost trace/dist: %+v", rr)
	}
	if code := postJSON(t, "PUT", ts.URL+"/graph",
		GraphSpec{Path: path}, &swapped); code != 200 { // bare Path defaults to kind "file"
		t.Fatalf("swap back to file: %d", code)
	}
	if swapped.N != g.N() {
		t.Fatalf("swap back: n=%d, want %d", swapped.N, g.N())
	}
}

// TestPutClosesFileAfterRoutes parks a route mid-walk on a file-backed
// deployment and PUTs a generated graph over it. The PUT must neither
// return nor unmap the old file while that route is in flight; once the
// route finishes, its reply is a valid walk and the mapping is closed.
func TestPutClosesFileAfterRoutes(t *testing.T) {
	g := gen.Cycle(20)
	s, err := New(Config{Graph: GraphSpec{Kind: "file", Path: writeCSR(t, g)}, Algorithms: []string{"alg2"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	csr := s.gen.Load().st.(*bigraph.CSR)
	park := parkNextDecision(t, s.engines["alg2"])
	defer park.release()

	parked := make(chan RouteReply, 1)
	go func() {
		var rr RouteReply
		if code := postJSON(t, http.MethodPost, ts.URL+"/route", RouteRequest{S: 0, T: 10}, &rr); code != http.StatusOK {
			t.Errorf("parked route: code %d", code)
		}
		parked <- rr
	}()
	<-park.entered
	put := make(chan int, 1)
	go func() { put <- postJSON(t, http.MethodPut, ts.URL+"/graph", GraphSpec{Kind: "cycle", Size: 16}, nil) }()
	// The PUT publishes its generation, then waits for the parked
	// route's lane before it closes the file.
	for s.gen.Load().epoch <= park.epoch {
		runtime.Gosched()
	}
	select {
	case code := <-put:
		t.Fatalf("PUT returned (code %d) while a route on the old file was in flight", code)
	case <-time.After(50 * time.Millisecond):
	}
	if !csr.Mapped() {
		t.Fatal("the old file was unmapped under an in-flight route")
	}

	park.release()
	rr := <-parked
	if rr.Epoch != park.epoch || !rr.Delivered {
		t.Fatalf("parked route: epoch %d delivered %v (%s), want epoch %d delivered", rr.Epoch, rr.Delivered, rr.Err, park.epoch)
	}
	if err := verify.CheckWalk(g, 0, 10, rr.Route, 0); err != nil {
		t.Fatal(err)
	}
	if code := <-put; code != http.StatusOK {
		t.Fatalf("PUT: code %d", code)
	}
	if csr.Mapped() {
		t.Fatal("the PUT left the old file mapped")
	}
}

// TestFileDeploymentBadPath: a broken file spec must fail the build, not
// the daemon.
func TestFileDeploymentBadPath(t *testing.T) {
	if _, err := New(Config{Graph: GraphSpec{Kind: "file", Path: "/nonexistent.csr"}}); err == nil {
		t.Fatal("daemon booted on a missing graph file")
	}
	if _, err := (GraphSpec{Kind: "file"}).BuildStore(); err == nil {
		t.Fatal("kind file without a path accepted")
	}
	if _, err := (GraphSpec{Kind: "file", Path: "x.csr"}).Build(); err == nil {
		t.Fatal("Build materialized a file spec")
	}
}
