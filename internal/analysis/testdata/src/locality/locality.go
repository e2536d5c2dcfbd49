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

// Bad consults the network directly instead of a k-local view, and
// leaks it across the package boundary where no analyzer follows.
func Bad(g *graph.Graph, k int) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
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
func BadHelper(g *graph.Graph) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		return helperBad(g, u), nil
	}
}

// BadStore asks a bigraph.Store about an edge: a store is the whole
// network, whatever its layout.
func BadStore(st bigraph.Store) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if st.HasEdge(u, t) { // want "klocality: decision path calls HasEdge on a raw bigraph.Store"
			return t, nil
		}
		return graph.NoVertex, nil
	}
}

// BadCSR reads a degree straight off the CSR arrays.
func BadCSR(c *bigraph.CSR) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if c.Deg(u) == 0 { // want "klocality: decision path calls Deg on a raw \*bigraph.CSR"
			return graph.NoVertex, nil
		}
		return t, nil
	}
}

// BadAccessor reaches the whole network through a carrier: the
// preprocessor's views are k-local, its Store is not.
func BadAccessor(p *prep.Preprocessor) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if p.Store().HasEdge(u, t) { // want "klocality: decision path calls HasEdge on a raw bigraph.Store"
			return t, nil
		}
		return p.At(u).C.NextHopFromCenter(t), nil
	}
}

// BadMethodArg hands the network to a method outside nbhd/prep.
func BadMethodArg(g *graph.Graph, k int) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		nb := nbhd.Extract(g, u, k)
		if nb.G.Equal(g) { // want "klocality: decision path passes a raw \*graph.Graph to Equal"
			return graph.NoVertex, nil
		}
		return nb.G.NextHopToward(u, t), nil
	}
}

// GoodScratch extracts G_k(u) from a store through an nbhd method, the
// sanctioned boundary, and decides on the compact view only.
func GoodScratch(st bigraph.Store, k int) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	sc := nbhd.NewScratch()
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if !sc.Extract(st, u, k) {
			return graph.NoVertex, nil
		}
		ti, ok := sc.View.Index(t)
		if !ok {
			return graph.NoVertex, nil
		}
		return sc.View.Verts[sc.NextHopToward(sc.View.CenterIdx, ti)], nil
	}
}

// Good goes through the sanctioned boundaries only: nbhd extraction,
// preprocessed views, and graphs reached through them.
func Good(g *graph.Graph, p *prep.RefPreprocessor, k int) func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		view := nbhd.Extract(g, u, k)
		vg := view.G
		adj := vg.Adj(u)
		if view.Contains(t) && len(adj) > 0 {
			return view.G.NextHopToward(u, t), nil
		}
		if pv := p.At(u); pv != nil {
			return pv.Routing.NextHopToward(u, t), nil
		}
		return graph.NoVertex, nil
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
