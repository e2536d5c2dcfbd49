package sim

import (
	"errors"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// over returns a k = 0 preprocessor of g: the test decisions read only
// their views' centres.
func over(g *graph.Graph) *prep.Preprocessor {
	return prep.NewPreprocessor(g, 0, 0, prep.CacheOptions{})
}

// follow returns a Func that forwards according to a fixed next-hop map
// keyed by (u, v).
type hop struct{ u, v graph.Vertex }

func follow(m map[hop]graph.Vertex) route.Func {
	return func(_, _, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		next, ok := m[hop{u, v}]
		if !ok {
			return graph.NoVertex, errors.New("no decision")
		}
		return next, nil
	}
}

func TestRunDeliversStraightLine(t *testing.T) {
	g := gen.Path(4)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		return view.Center + 1, nil
	}
	res := Run(over(g), f, 0, 3, Options{DetectLoops: true, PredecessorAware: true})
	if res.Outcome != Delivered || res.Len() != 3 || res.Dist != 3 {
		t.Errorf("result = %+v", res)
	}
	if d := res.Dilation(); d != 1 {
		t.Errorf("dilation = %v, want 1", d)
	}
}

func TestRunHandsEachHopItsView(t *testing.T) {
	g := gen.Path(5)
	p := prep.NewPreprocessor(g, 4, 0, prep.CacheOptions{})
	var centres []graph.Vertex
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		if view != p.At(view.Center, nil) {
			return graph.NoVertex, errors.New("view is not the cached one")
		}
		centres = append(centres, view.Center)
		return view.C.NextHopFromCenter(4), nil
	}
	res := Run(p, f, 0, 4, Options{DetectLoops: true})
	if res.Outcome != Delivered || len(centres) != 4 {
		t.Fatalf("result = %+v, decided at %v", res, centres)
	}
	for i, c := range centres {
		if c != res.Route[i] {
			t.Errorf("hop %d decided at %d, walk was at %d", i, c, res.Route[i])
		}
	}
}

func TestRunSelfDelivery(t *testing.T) {
	g := gen.Path(3)
	called := false
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		called = true
		return 0, nil
	}
	res := Run(over(g), f, 1, 1, Options{})
	if res.Outcome != Delivered || res.Len() != 0 || called {
		t.Errorf("s == t must deliver immediately without invoking f: %+v", res)
	}
	if res.Dilation() != 0 {
		t.Errorf("dilation of the empty route must be 0")
	}
}

func TestRunDetectsDirectedEdgeLoop(t *testing.T) {
	g := gen.Cycle(4)
	// Always go clockwise: revisits directed edges after one lap.
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		return (u + 1) % 4, nil
	}
	res := Run(over(g), f, 0, 99, Options{DetectLoops: true, PredecessorAware: true})
	// t=99 is absent, but Run only errors through f; here the walk loops.
	if res.Outcome != Looped {
		t.Errorf("outcome = %v, want Looped", res.Outcome)
	}
	if res.Len() > 8 {
		t.Errorf("loop detection took %d steps, expected within two laps", res.Len())
	}
}

func TestRunNodeLoopForObliviousAlgorithms(t *testing.T) {
	g := gen.Cycle(4)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		return (u + 1) % 4, nil
	}
	res := Run(over(g), f, 0, 99, Options{DetectLoops: true, PredecessorAware: false})
	if res.Outcome != Looped || res.Len() > 4 {
		t.Errorf("node-level loop detection failed: %+v", res)
	}
}

func TestRunBouncingIsNotALoopUntilStateRepeats(t *testing.T) {
	// A predecessor-aware walk may traverse an edge once in each direction
	// without looping.
	g := gen.Path(3)
	m := map[hop]graph.Vertex{
		{1, graph.NoVertex}: 0, // away from t first
		{0, 1}:              1, // bounce at the end
		{1, 0}:              2, // then to t
	}
	res := Run(over(g), follow(m), 1, 2, Options{DetectLoops: true, PredecessorAware: true})
	if res.Outcome != Delivered || res.Len() != 3 {
		t.Errorf("result = %+v route=%v", res, res.Route)
	}
	if d := res.Dilation(); d != 3 {
		t.Errorf("dilation = %v, want 3", d)
	}
}

func TestRunErrorsOnIllegalHop(t *testing.T) {
	g := gen.Path(3)
	f := func(_, _, _ graph.Vertex, _ *prep.View, _ *prep.Scratch) (graph.Vertex, error) { return 99, nil }
	res := Run(over(g), f, 0, 2, Options{})
	if res.Outcome != Errored || !errors.Is(res.Err, ErrIllegalHop) {
		t.Errorf("result = %+v", res)
	}
}

func TestRunPropagatesFunctionError(t *testing.T) {
	g := gen.Path(3)
	sentinel := errors.New("boom")
	f := func(_, _, _ graph.Vertex, _ *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		return graph.NoVertex, sentinel
	}
	res := Run(over(g), f, 0, 2, Options{})
	if res.Outcome != Errored || !errors.Is(res.Err, sentinel) {
		t.Errorf("result = %+v", res)
	}
}

func TestRunExhaustsBudget(t *testing.T) {
	g := gen.Cycle(6)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		return graph.Vertex((int(u) + 1) % 6), nil
	}
	res := (&Walker{pre: over(g), f: f}).RunScratch(0, 3, 2, NewScratch())
	if res.Outcome != Exhausted {
		t.Errorf("outcome = %v, want Exhausted", res.Outcome)
	}
}

func TestUndeliveredDilationIsMax(t *testing.T) {
	g := gen.Cycle(6)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		return graph.Vertex((int(u) + 1) % 6), nil
	}
	res := (&Walker{pre: over(g), f: f}).RunScratch(0, 3, 1, NewScratch())
	if res.Dilation() != MaxDilation {
		t.Errorf("dilation = %v, want MaxDilation", res.Dilation())
	}
}

func TestOutcomeStrings(t *testing.T) {
	tests := []struct {
		give Outcome
		want string
	}{
		{Delivered, "delivered"},
		{Looped, "looped"},
		{Errored, "errored"},
		{Exhausted, "exhausted"},
		{Outcome(42), "Outcome(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}
