// Package stateless seeds kstateless violations: decision paths
// mutating state that survives the call.
package stateless

import (
	"klocal/internal/graph"
	"klocal/internal/prep"
)

// hits is package-level scratch no decision path may touch.
var hits int

// Router carries per-instance bookkeeping; its routing method must not
// write it.
type Router struct {
	count int
	last  map[graph.Vertex]graph.Vertex
}

// Route matches the decision signature, so the receiver writes below
// are after-bind state mutations.
func (r *Router) Route(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	hits++                  // want "kstateless: decision path writes package-level variable hits"
	r.count++               // want "kstateless: decision path writes field count of bind-time value r"
	r.last[view.Center] = v // want "kstateless: decision path writes an element of bind-time value r"
	return t, nil
}

// Bad closes over bind-time locals and mutates them per call.
func Bad() func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	visits := 0
	trail := make([]graph.Vertex, 8)
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		visits++                      // want "kstateless: decision path writes closed-over variable visits"
		trail[visits%8] = view.Center // want "kstateless: decision path writes an element of bind-time value trail"
		return t, nil
	}
}

// Good keeps every write inside the call: locals, including those its
// own nested literals close over, are per-call state.
func Good() func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		best := graph.NoVertex
		seen := make(map[graph.Vertex]bool)
		pick := func(w graph.Vertex) {
			best = w
			seen[w] = true
		}
		pick(view.Center)
		if seen[best] {
			return best, nil
		}
		return t, nil
	}
}
