// Package locality seeds klocality violations: decision paths reaching
// past G_k(u) into the raw network.
package locality

import (
	"fmt"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// Decide is the routing-function shape: the walker hands the decision
// the view of its current node and a scratch.
type Decide func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error)

// Bad consults the network directly instead of a k-local view, and
// leaks it across the package boundary where no analyzer follows.
func Bad(g *graph.Graph, k int) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		adj := g.Adj(u) // want "klocality: decision path calls Adj on a raw"
		_ = g.BFS(u)    // want "klocality: decision path calls BFS on a raw"
		fmt.Println(g)  // want "klocality: decision path passes a raw .* to fmt.Println"
		if len(adj) == 0 {
			return graph.NoVertex, nil
		}
		return adj[0], nil
	}
}

// helperBad is pulled into the decision closure of BadHelper and must
// obey the same contract.
func helperBad(g *graph.Graph, u graph.Vertex) graph.Vertex {
	adj := g.Adj(u) // want "klocality: decision path calls Adj on a raw"
	if len(adj) > 0 {
		return adj[0]
	}
	return graph.NoVertex
}

// BadHelper hides the violation one call away: handing the graph to a
// same-package helper is fine in itself (the helper joins the decision
// closure and is checked above), the raw access inside it is not.
func BadHelper(g *graph.Graph) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		return helperBad(g, view.Center), nil
	}
}

// BadStore asks a bigraph.Store about an edge: a store is the whole
// network, whatever its layout.
func BadStore(st bigraph.Store) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		if st.HasEdge(view.Center, t) { // want "klocality: decision path calls HasEdge on a raw bigraph.Store"
			return t, nil
		}
		return graph.NoVertex, nil
	}
}

// BadCSR reads a degree straight off the CSR arrays.
func BadCSR(c *bigraph.CSR) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		if c.Deg(view.Center) == 0 { // want "klocality: decision path calls Deg on a raw \*bigraph.CSR"
			return graph.NoVertex, nil
		}
		return t, nil
	}
}

// BadAccessor reaches the whole network through a carrier: the
// preprocessor's views are k-local, its Store is not.
func BadAccessor(p *prep.Preprocessor) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		if p.Store().HasEdge(view.Center, t) { // want "klocality: decision path calls HasEdge on a raw bigraph.Store"
			return t, nil
		}
		return view.C.NextHopFromCenter(t), nil
	}
}

// BadMethodArg hands the network to a method outside nbhd/prep.
func BadMethodArg(p *prep.RefPreprocessor, g *graph.Graph) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		nb := p.At(view.Center).Raw
		if nb.G.Equal(g) { // want "klocality: decision path passes a raw \*graph.Graph to Equal"
			return graph.NoVertex, nil
		}
		return nb.G.NextHopToward(view.Center, t), nil
	}
}

// BadMapView builds map-shaped views on the decision path: they are
// k-local, but test references, rebuilt in maps on every hop.
func BadMapView(st bigraph.Store, k int) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		nb := nbhd.Extract(st, u, k) // want "klocality: decision path builds a map-shaped view with nbhd.Extract"
		if nb.Contains(t) {
			return nb.G.NextHopToward(u, t), nil
		}
		rv := prep.PreprocessRef(st, u, k, prep.PolicyMinRank) // want "klocality: decision path builds a map-shaped view with prep.PreprocessRef"
		if len(rv.ActiveRoots) == 0 {
			return graph.NoVertex, nil
		}
		return rv.ActiveRoots[0], nil
	}
}

// BadPorts reads a view cache it holds at the destination: every view
// a cache hands out is k-local, but only the current node's is G_k(u).
func BadPorts(ports *prep.Preprocessor) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		far := ports.At(t, sc) // want "klocality: decision path reads a view cache at a vertex other than the handed view's Center"
		return far.C.NextHopFromCenter(view.Center), nil
	}
}

// BadRefCache reads the map-shaped reference cache off the current
// node, through a helper in the decision closure.
func BadRefCache(p *prep.RefPreprocessor) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		return refAt(p, view, t), nil
	}
}

// refAt reads p at the handed view's centre (clean) and at t (a
// finding).
func refAt(p *prep.RefPreprocessor, view *prep.View, t graph.Vertex) graph.Vertex {
	if p.At(view.Center).Raw.Contains(t) {
		return t
	}
	return p.At(t).Center // want "klocality: decision path reads a view cache at a vertex other than the handed view's Center"
}

// GoodPorts reads the cache it holds at the handed view's centre only:
// the right-hand rule's ports at k < 1.
func GoodPorts(ports *prep.Preprocessor) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		raw := ports.At(view.Center, sc).C.Raw
		if raw.NV() == 0 {
			return graph.NoVertex, nil
		}
		return raw.Verts[raw.Row(raw.CenterIdx)[0]], nil
	}
}

// BadAdapter is the four-vertex f(s, t, u, v) shape of an adapter that
// fetches its own view: it may read the cache at u, not at t.
func BadAdapter(p *prep.Preprocessor) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	sc := prep.NewScratch()
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if hop := p.At(u, sc).C.NextHopFromCenter(t); hop != graph.NoVertex {
			return hop, nil
		}
		return p.At(t, sc).Center, nil // want "klocality: decision path reads a view cache at a vertex other than the handed view's Center"
	}
}

// GoodScratch extracts G_k(u) from a store through an nbhd method, the
// sanctioned boundary, and decides on the compact view only.
func GoodScratch(st bigraph.Store, k int) Decide {
	sc := nbhd.NewScratch()
	return func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		if !sc.Extract(st, view.Center, k) {
			return graph.NoVertex, nil
		}
		ti, ok := sc.View.Index(t)
		if !ok {
			return graph.NoVertex, nil
		}
		return sc.View.Verts[sc.NextHopToward(sc.View.CenterIdx, ti)], nil
	}
}

// Good goes through the sanctioned boundaries only: views a
// preprocessor hands out at the current node, and graphs reached
// through them.
func Good(p *prep.RefPreprocessor) Decide {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		pv := p.At(view.Center)
		vg := pv.Raw.G
		adj := vg.Adj(u)
		if pv.Raw.Contains(t) && len(adj) > 0 {
			return pv.Raw.G.NextHopToward(u, t), nil
		}
		return pv.Routing.NextHopToward(u, t), nil
	}
}

// OptedStep does not have the routing signature; the marker drafts it
// into the decision analyzers anyway.
//
//klocal:decision
func OptedStep(g *graph.Graph, u graph.Vertex) graph.Vertex {
	adj := g.Adj(u) // want "klocality: decision path calls Adj on a raw"
	if len(adj) > 0 {
		return adj[0]
	}
	return graph.NoVertex
}

// UnmarkedStep has the same shape and no marker: not a decision path,
// so raw graph access is fine here.
func UnmarkedStep(g *graph.Graph, u graph.Vertex) graph.Vertex {
	adj := g.Adj(u)
	if len(adj) > 0 {
		return adj[0]
	}
	return graph.NoVertex
}
