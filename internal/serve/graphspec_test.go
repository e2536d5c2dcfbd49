package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGraphSpecBounds builds every generator kind at every size from 1
// to 5, plus specs far past the edge ceiling. A size below the smallest
// graph the kind can build, and a spec asking for more than
// maxSpecEdges edges, must fail with ErrSpecBounds before the generator
// runs; every other spec must build a connected graph. No spec may
// panic.
func TestGraphSpecBounds(t *testing.T) {
	minSize := map[string]int{
		"lollipop": 4, "cycle": 3, "path": 2, "grid": 2, "spider": 5,
		"wheel": 4, "barbell": 6, "complete": 2, "random": 2, "tree": 2,
	}
	build := func(sp GraphSpec) (n int, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		g, err := sp.Build()
		if err == nil && !g.Connected() {
			err = fmt.Errorf("disconnected")
		}
		if err == nil {
			n = g.N()
		}
		return n, err
	}
	for kind, lo := range minSize {
		for size := 1; size <= 5; size++ {
			t.Run(fmt.Sprintf("%s/%d", kind, size), func(t *testing.T) {
				n, err := build(GraphSpec{Kind: kind, Size: size})
				switch {
				case size < lo && !errors.Is(err, ErrSpecBounds):
					t.Fatalf("size %d below the minimum %d: err = %v, want ErrSpecBounds", size, lo, err)
				case size >= lo && err != nil:
					t.Fatalf("size %d: %v", size, err)
				case size >= lo && n < 2:
					t.Fatalf("size %d built %d vertices", size, n)
				}
			})
		}
	}
	for _, sp := range []GraphSpec{
		{Kind: "complete", Size: 1_000_000},
		{Kind: "random", Size: 100_000, P: 1e-9},
		{Kind: "barbell", Size: 10_000},
		{Kind: "grid", Size: 1 << 40},
		{Kind: "path", Size: math.MaxInt},
		{Kind: "lollipop", Size: math.MaxInt},
	} {
		if _, err := build(sp); !errors.Is(err, ErrSpecBounds) {
			t.Errorf("%s: err = %v, want ErrSpecBounds", sp, err)
		}
	}
	if _, edges, _ := specBounds("grid", 1_000_000); edges > maxSpecEdges {
		t.Errorf("a 1000x1000 grid asks for %.0f edges, over the %d ceiling", edges, maxSpecEdges)
	}
}

// TestSwapOutOfBoundsKeepsServing PUTs specs the generators cannot
// build: each must answer 400, and the current deployment must keep
// its revision and keep routing.
func TestSwapOutOfBoundsKeepsServing(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 12}, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var before GraphReply
	postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &before)
	for _, sp := range []GraphSpec{{Kind: "cycle", Size: 2}, {Kind: "barbell", Size: 5}, {Kind: "complete", Size: 1_000_000}} {
		if code := postJSON(t, http.MethodPut, ts.URL+"/graph", sp, nil); code != http.StatusBadRequest {
			t.Fatalf("PUT %s: code %d, want 400", sp, code)
		}
	}
	var after GraphReply
	postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &after)
	if after.Rev != before.Rev {
		t.Fatalf("rejected specs moved the revision: %d -> %d", before.Rev, after.Rev)
	}
	var rep RouteReply
	if code := postJSON(t, http.MethodPost, ts.URL+"/route", RouteRequest{S: 0, T: 6}, &rep); code != http.StatusOK || !rep.Delivered {
		t.Fatalf("route after rejected swaps: code %d, delivered %v", code, rep.Delivered)
	}
}
