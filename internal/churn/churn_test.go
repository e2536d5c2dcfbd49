package churn

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
)

func v(vs ...graph.Vertex) []graph.Vertex { return vs }

func TestApplyTable(t *testing.T) {
	// Path 0-1-...-9 throughout; k varies per case.
	path := gen.Path(10)
	cases := []struct {
		name    string
		g       *graph.Graph
		d       Delta
		k       int
		wantErr error
		dirty   []graph.Vertex // nil when wantErr != nil
		post    *graph.Graph   // optional expected post-graph
	}{
		{
			name:    "self-loop rejected",
			g:       path,
			d:       Delta{Op: AddEdge, U: 3, V: 3},
			k:       2,
			wantErr: ErrSelfLoop,
		},
		{
			name:    "duplicate edge rejected",
			g:       path,
			d:       Delta{Op: AddEdge, U: 4, V: 5},
			k:       2,
			wantErr: ErrEdgeExists,
		},
		{
			name:    "removing absent edge rejected",
			g:       path,
			d:       Delta{Op: RemoveEdge, U: 1, V: 9},
			k:       2,
			wantErr: ErrEdgeMissing,
		},
		{
			name:    "adding existing vertex rejected",
			g:       path,
			d:       Delta{Op: AddVertex, U: 7},
			k:       2,
			wantErr: ErrVertexExists,
		},
		{
			name:    "removing absent vertex rejected",
			g:       path,
			d:       Delta{Op: RemoveVertex, U: 99},
			k:       2,
			wantErr: ErrVertexMissing,
		},
		{
			// Removing {5,6} cuts the path into 0..5 and 6..9. With
			// k = 2 the dirty set is exactly the radius-2 balls of the
			// endpoints taken in the pre-graph (the post-balls are
			// subsets): {3..7} ∪ {4..8}.
			name:  "cut edge splits component",
			g:     path,
			d:     Delta{Op: RemoveEdge, U: 5, V: 6},
			k:     2,
			dirty: v(3, 4, 5, 6, 7, 8),
			post: graph.FromEdges([]graph.Edge{
				{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
				{U: 4, V: 5}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9},
			}),
		},
		{
			// Removing the end edge {0,1} with k = 3: vertex 4 sits at
			// distance exactly k from endpoint 1 and must be dirty;
			// vertex 5 at distance k+1 must not.
			name:  "dirty boundary at exactly distance k",
			g:     path,
			d:     Delta{Op: RemoveEdge, U: 0, V: 1},
			k:     3,
			dirty: v(0, 1, 2, 3, 4),
		},
		{
			// Isolated arrival touches only itself.
			name:  "vertex arrival is self-dirty",
			g:     path,
			d:     Delta{Op: AddVertex, U: 42},
			k:     3,
			dirty: v(42),
		},
		{
			// Departure of an interior vertex: its radius-2 pre-ball.
			name:  "vertex departure dirties its pre-ball",
			g:     path,
			d:     Delta{Op: RemoveVertex, U: 1},
			k:     2,
			dirty: v(0, 1, 2, 3),
		},
		{
			// A shortcut edge changes distances on both sides: the
			// post-balls reach through the new edge. Pre: B_1(2)={1,2,3},
			// B_1(9)={8,9}; post adds 9 to the first and 2 to the
			// second.
			name:  "shortcut edge dirties both post-balls",
			g:     path,
			d:     Delta{Op: AddEdge, U: 2, V: 9},
			k:     1,
			dirty: v(1, 2, 3, 8, 9),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			post, dirty, err := Apply(tc.g, tc.d, tc.k)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Apply(%v) error = %v, want %v", tc.d, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Apply(%v): %v", tc.d, err)
			}
			if !reflect.DeepEqual(dirty, tc.dirty) {
				t.Fatalf("Apply(%v) dirty = %v, want %v", tc.d, dirty, tc.dirty)
			}
			if tc.post != nil && !post.Equal(tc.post) {
				t.Fatalf("Apply(%v) post-graph mismatch", tc.d)
			}
			// Copy-on-write: the pre-graph is untouched.
			if !tc.g.Equal(gen.Path(10)) {
				t.Fatalf("Apply(%v) mutated the input graph", tc.d)
			}
		})
	}
}

// ballSignature captures the induced radius-k subgraph around w — the
// information a k-local view is built from.
func ballSignature(g *graph.Graph, w graph.Vertex, k int) map[graph.Vertex][]graph.Vertex {
	ball := g.BFSBounded(w, k)
	sig := make(map[graph.Vertex][]graph.Vertex, len(ball))
	for u := range ball {
		var row []graph.Vertex
		for _, x := range g.Adj(u) {
			if _, ok := ball[x]; ok {
				row = append(row, x)
			}
		}
		sig[u] = row
	}
	return sig
}

// TestDirtySetSound checks the contract the whole subsystem leans on:
// every vertex outside the dirty set has an identical induced radius-k
// ball before and after the delta.
func TestDirtySetSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		g := gen.RandomConnected(rng, 6+rng.Intn(14), 0.15)
		k := 1 + rng.Intn(3)
		s := NewScheduler(g, int64(iter))
		d := s.Next()
		post, dirty, err := Apply(g, d, k)
		if err != nil {
			t.Fatalf("iter %d: scheduler emitted invalid delta %v: %v", iter, d, err)
		}
		isDirty := make(map[graph.Vertex]bool, len(dirty))
		for _, u := range dirty {
			isDirty[u] = true
		}
		clean := 0
		g.EachVertex(func(w graph.Vertex) bool {
			if isDirty[w] {
				return true
			}
			clean++
			if !reflect.DeepEqual(ballSignature(g, w, k), ballSignature(post, w, k)) {
				t.Fatalf("iter %d: delta %v (k=%d) changed the ball of clean vertex %d", iter, d, k, w)
			}
			return true
		})
	}
}

// TestDeltaInvalidationBound pins the acceptance-criteria locality
// bound: on a 40x40 grid a single edge delta dirties |B_k(u)| + |B_k(v)|
// ≤ 2(2k²+2k+1) vertices — two orders of magnitude below n.
func TestDeltaInvalidationBound(t *testing.T) {
	g := gen.Grid(40, 40)
	k := 3
	e := g.Edges()[g.M()/2]
	_, dirty, err := Apply(g, Delta{Op: RemoveEdge, U: e.U, V: e.V}, k)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * (2*k*k + 2*k + 1) // two planar-grid balls of radius k
	if len(dirty) > bound {
		t.Fatalf("dirty set %d exceeds 2|B_%d| bound %d", len(dirty), k, bound)
	}
	if len(dirty) >= g.N()/10 {
		t.Fatalf("dirty set %d not local on n=%d grid", len(dirty), g.N())
	}
}

func TestDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		pre := gen.RandomConnected(rng, 4+rng.Intn(12), 0.2)
		post := gen.RandomConnected(rng, 4+rng.Intn(12), 0.2)
		deltas := Diff(pre, post)
		got, _, err := ApplyAll(pre, deltas, 2)
		if err != nil {
			t.Fatalf("iter %d: replaying Diff: %v", iter, err)
		}
		if !got.Equal(post) {
			t.Fatalf("iter %d: Diff round-trip mismatch", iter)
		}
		if len(Diff(post, post)) != 0 {
			t.Fatalf("iter %d: Diff(g, g) not empty", iter)
		}
	}
}

func TestScheduleDeltasDeterministic(t *testing.T) {
	g := gen.Grid(5, 5)
	a := ScheduleDeltas(g, 9, 50)
	b := ScheduleDeltas(g, 9, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := ScheduleDeltas(g, 10, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every schedule replays cleanly from the origin graph.
	if _, _, err := ApplyAll(g, a, 3); err != nil {
		t.Fatalf("schedule does not replay: %v", err)
	}
}

// TestReservedLabelRejected pins that graph.NoVertex never becomes a
// vertex: routing reads it as "no predecessor" and "no next hop", so a
// 12-cycle with NoVertex attached to 0 makes Algorithms 1 and 2 loop.
// Every op naming it fails with ErrReservedLabel and leaves g alone.
func TestReservedLabelRejected(t *testing.T) {
	g := gen.Cycle(12)
	for _, d := range []Delta{
		{Op: AddEdge, U: 0, V: graph.NoVertex},
		{Op: AddEdge, U: graph.NoVertex, V: 0},
		{Op: RemoveEdge, U: 0, V: graph.NoVertex},
		{Op: AddVertex, U: graph.NoVertex},
		{Op: RemoveVertex, U: graph.NoVertex},
	} {
		if _, _, err := Apply(g, d, 2); !errors.Is(err, ErrReservedLabel) {
			t.Errorf("Apply(%v) = %v, want ErrReservedLabel", d, err)
		}
		if _, _, err := ApplyAll(g, []Delta{{Op: AddEdge, U: 0, V: 6}, d}, 2); !errors.Is(err, ErrReservedLabel) {
			t.Errorf("ApplyAll(..., %v) = %v, want ErrReservedLabel", d, err)
		}
	}
	if g.HasVertex(graph.NoVertex) || g.M() != 12 {
		t.Fatal("a rejected delta changed the graph")
	}
}
