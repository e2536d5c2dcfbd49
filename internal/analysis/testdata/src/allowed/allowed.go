// Package allowed exercises //klocal:allow suppression against the
// full suite: documented exceptions on the same line or the line above
// are silenced, everything else still fires — including a reasonless
// allow, which suppresses nothing and is itself flagged.
package allowed

import (
	"klocal/internal/graph"
	"klocal/internal/prep"
)

// Routed mixes suppressed and unsuppressed locality violations.
func Routed(g *graph.Graph) func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		//klocal:allow fixture demonstrates a documented exception on the preceding line
		adjA := g.Adj(view.Center)

		adjB := g.Adj(t) //klocal:allow a trailing directive on the flagged line also suppresses

		adjC := g.Adj(v) // want "klocality: decision path calls Adj on a raw"

		//klocal:allow
		dist := g.BFS(view.Center) // want "klocality: decision path calls BFS on a raw"
		// want-2 "kdirective: klocal:allow must state a reason"

		if len(adjA)+len(adjB)+len(adjC)+len(dist) == 0 {
			return graph.NoVertex, nil
		}
		return t, nil
	}
}
