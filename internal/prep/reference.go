package prep

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// This file preserves the map-shaped preprocessing the compact-native
// pipeline (build.go) replaced: a direct transcription of Section 5.1
// over label-space graphs — G_k(u) as a map graph, dormancy by one
// closure-filtered BFS per edge, a pruned copy re-extracted, components
// classified in label space — plus the one-off re-encoding of all that
// into the compact form. It exists to pin the production pipeline:
// PreprocessRef(...).Encode() must equal PreprocessStore field for field
// (DiffViews: TestPreprocessMatchesRef and the klocalcheck "delta"
// property), and the route package's *Ref algorithms decide over
// RefViews, so the klocalcheck "compact" property compares the whole
// preprocessing-and-decision pipeline against this one. Nothing here
// runs on production paths.

// RefView is the map-shaped reference view at a node: the raw
// k-neighbourhood G_k(u), the locally identified dormant edges, and the
// routing subgraph G'_k(u) with its classified components.
type RefView struct {
	Center graph.Vertex
	K      int

	// Raw is the unprocessed k-neighbourhood G_k(u).
	Raw *nbhd.Neighborhood
	// Dormant lists the edges of G_k(u) classified dormant at this node,
	// in rank order.
	Dormant []graph.Edge
	// Routing is G'_k(u): the dormant-free neighbourhood re-restricted to
	// paths of length at most k rooted at the centre.
	Routing *graph.Graph
	// RoutingDist maps each vertex of Routing to its distance from the
	// centre along routing edges.
	RoutingDist map[graph.Vertex]int
	// Comps are the local components of G'_k(u), classified with routing
	// distances, ordered by lowest root label.
	Comps []*nbhd.Component
	// ActiveRoots lists the active neighbours of the centre (roots of
	// active components) in rank order.
	ActiveRoots []graph.Vertex
}

// PreprocessRef computes the reference view at u for locality k under
// policy pol, reading topology through st.
func PreprocessRef(st bigraph.Store, u graph.Vertex, k int, pol Policy) *RefView {
	raw := nbhd.Extract(st, u, k)
	v := &RefView{Center: u, K: k, Raw: raw}
	for _, e := range raw.G.Edges() {
		if dormantInView(raw.G, e, k, pol) {
			// Edges() is rank-ordered, so Dormant stays sorted.
			v.Dormant = append(v.Dormant, e)
		}
	}
	inner := nbhd.Extract(raw.G.WithoutEdges(v.Dormant), u, k)
	v.Routing = inner.G
	v.RoutingDist = inner.Dist
	v.Comps = nbhd.ClassifyView(v.Routing, u, k)
	for _, c := range v.Comps {
		if c.Active {
			v.ActiveRoots = append(v.ActiveRoots, c.Roots...)
		}
	}
	sort.Slice(v.ActiveRoots, func(i, j int) bool { return v.ActiveRoots[i] < v.ActiveRoots[j] })
	return v
}

// dormantInView reports whether e is the policy-extreme edge of some
// cycle of length at most 2k inside view: equivalently, whether the view
// has a path between e's endpoints of length at most 2k−1 using only
// edges beyond e in the policy's order. The zero policy has no dormant
// edges.
func dormantInView(view *graph.Graph, e graph.Edge, k int, pol Policy) bool {
	if pol == 0 {
		return false
	}
	allow := func(f graph.Edge) bool { return e.Less(f) }
	if pol == PolicyMaxRank {
		allow = func(f graph.Edge) bool { return f.Less(e) }
	}
	return view.HasPathAvoiding(e.U, e.V, 2*k-1, allow)
}

// Encode re-encodes the reference view into the compact form,
// independently of build.go: each label-space graph re-indexed through
// a scratch, one target-rooted BFS per next hop, the routing view
// classified and cloned. It fills both halves itself, so DiffViews
// compares the production routing half with this one rather than with
// a second lazy build.
func (v *RefView) Encode() *View {
	sc := nbhd.NewScratch()
	if !sc.FromView(v.Raw.G, v.Center, v.K) {
		out := emptyView(v.Center, v.K, 0)
		out.half.Store(emptyHalf(v.Center, int32(v.K)))
		return out
	}
	out := &View{Center: v.Center, K: v.K}
	out.C.Raw = sc.View.Clone()
	out.C.NextHop = make([]graph.Vertex, sc.View.NV())
	for t := range out.C.NextHop {
		hop := sc.NextHopToward(sc.View.CenterIdx, int32(t))
		if hop < 0 {
			out.C.NextHop[t] = graph.NoVertex
		} else {
			out.C.NextHop[t] = sc.View.Verts[hop]
		}
	}

	h := &RoutingHalf{Dormant: append([]graph.Edge(nil), v.Dormant...)}
	sc.FromView(v.Routing, v.Center, v.K)
	sc.Classify()
	h.Routing = sc.View.Clone()
	h.Comps = make([]nbhd.CompactComponent, len(sc.Comps))
	h.CompID = make([]int32, sc.View.NV())
	for i := range h.CompID {
		h.CompID[i] = -1
	}
	for i := range sc.Comps {
		cc := &sc.Comps[i]
		h.Comps[i] = nbhd.CompactComponent{
			Verts:       append([]int32(nil), cc.Verts...),
			Roots:       append([]int32(nil), cc.Roots...),
			Constraints: append([]int32(nil), cc.Constraints...),
			Active:      cc.Active,
			Independent: cc.Independent,
			Constrained: cc.Constrained,
		}
		for _, li := range cc.Verts {
			h.CompID[li] = int32(i)
		}
	}
	h.ActiveRoots = append([]graph.Vertex(nil), v.ActiveRoots...)
	out.half.Store(h)
	return out
}

// CompOf returns the local component of G'_k(u) containing w, or nil if w
// is the centre or outside the routing view.
func (v *RefView) CompOf(w graph.Vertex) *nbhd.Component {
	for _, c := range v.Comps {
		if c.Has(w) {
			return c
		}
	}
	return nil
}

// CompRootedAt returns the component having w as a root, or nil.
func (v *RefView) CompRootedAt(w graph.Vertex) *nbhd.Component {
	for _, c := range v.Comps {
		for _, r := range c.Roots {
			if r == w {
				return c
			}
		}
	}
	return nil
}

// RefPreprocessor memoizes reference views per vertex for one network,
// locality and policy — what the route package's *Ref algorithms decide
// over. It is safe for concurrent use.
type RefPreprocessor struct {
	st  bigraph.Store
	k   int
	pol Policy

	mu    sync.Mutex
	views map[graph.Vertex]*RefView
}

// NewRefPreprocessor returns an empty reference view memo over st.
func NewRefPreprocessor(st bigraph.Store, k int, pol Policy) *RefPreprocessor {
	return &RefPreprocessor{st: st, k: k, pol: pol, views: make(map[graph.Vertex]*RefView)}
}

// At returns the reference view at u, computing it on first use.
func (p *RefPreprocessor) At(u graph.Vertex) *RefView {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[u]
	if !ok {
		v = PreprocessRef(p.st, u, p.k, p.pol)
		p.views[u] = v
	}
	return v
}

// DiffViews reports the first difference between two views, or nil when
// they agree on everything routing reads: centre and locality, both
// compact encodings, the raw view's completeness, next hops, the dormant set, the classified
// components, the component index and the active roots. It compares
// both halves, so it builds the routing half of a view that has none.
func DiffViews(got, want *View) error {
	if got.Center != want.Center || got.K != want.K {
		return fmt.Errorf("center/k (%d, %d), want (%d, %d)", got.Center, got.K, want.Center, want.K)
	}
	if err := diffCompactView(got.C.Raw, want.C.Raw); err != nil {
		return fmt.Errorf("raw view: %w", err)
	}
	if got.C.Raw.Complete != want.C.Raw.Complete {
		return fmt.Errorf("raw view complete = %v, want %v", got.C.Raw.Complete, want.C.Raw.Complete)
	}
	if !slices.Equal(got.C.NextHop, want.C.NextHop) {
		return fmt.Errorf("next hops %v, want %v", got.C.NextHop, want.C.NextHop)
	}
	gh, wh := got.RoutingHalf(), want.RoutingHalf()
	if !slices.Equal(gh.Dormant, wh.Dormant) {
		return fmt.Errorf("dormant edges %v, want %v", gh.Dormant, wh.Dormant)
	}
	if err := diffCompactView(gh.Routing, wh.Routing); err != nil {
		return fmt.Errorf("routing view: %w", err)
	}
	if len(gh.Comps) != len(wh.Comps) {
		return fmt.Errorf("%d components, want %d", len(gh.Comps), len(wh.Comps))
	}
	for i := range wh.Comps {
		g, w := &gh.Comps[i], &wh.Comps[i]
		if !slices.Equal(g.Verts, w.Verts) || !slices.Equal(g.Roots, w.Roots) ||
			!slices.Equal(g.Constraints, w.Constraints) ||
			g.Active != w.Active || g.Independent != w.Independent || g.Constrained != w.Constrained {
			return fmt.Errorf("component %d is %+v, want %+v", i, *g, *w)
		}
	}
	if !slices.Equal(gh.CompID, wh.CompID) {
		return fmt.Errorf("component index %v, want %v", gh.CompID, wh.CompID)
	}
	if !slices.Equal(gh.ActiveRoots, wh.ActiveRoots) {
		return fmt.Errorf("active roots %v, want %v", gh.ActiveRoots, wh.ActiveRoots)
	}
	return nil
}

// diffCompactView compares two compact encodings field by field.
func diffCompactView(got, want *nbhd.CompactView) error {
	switch {
	case got.Center != want.Center || got.CenterIdx != want.CenterIdx || got.K != want.K:
		return fmt.Errorf("center %d@%d k=%d, want %d@%d k=%d",
			got.Center, got.CenterIdx, got.K, want.Center, want.CenterIdx, want.K)
	case !slices.Equal(got.Verts, want.Verts):
		return fmt.Errorf("vertices %v, want %v", got.Verts, want.Verts)
	case !slices.Equal(got.Dist, want.Dist):
		return fmt.Errorf("distances %v, want %v", got.Dist, want.Dist)
	case !slices.Equal(got.AdjStart, want.AdjStart) || !slices.Equal(got.Adj, want.Adj):
		return fmt.Errorf("adjacency %v/%v, want %v/%v", got.AdjStart, got.Adj, want.AdjStart, want.Adj)
	}
	return nil
}
