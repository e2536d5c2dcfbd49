package cluster

import (
	"fmt"

	"klocal/internal/churn"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/route"
)

// boundView is one owned vertex's discovered G_k(u) with the routing
// algorithm bound to it. It is immutable once built; a store change
// whose k-radius dirty set covers u (per-row generation in
// Member.viewGen) invalidates it and the next request rebuilds.
type boundView struct {
	gen      int64
	view     *graph.Graph
	complete bool
	router   route.Func
}

// decide takes one forwarding step for the owned vertex u using only
// the algorithm bound to u's locally discovered view. This is the
// cluster's entire decision path: klocalvet seeds it by signature and
// verifies the closure never escapes to global topology.
func (bv *boundView) decide(s, t, u, v graph.Vertex) (graph.Vertex, error) {
	return bv.router(s, t, u, v)
}

// viewFor returns the current bound view for owned vertex u, rebuilding
// it outside the member lock when the link-state store has moved on.
func (m *Member) viewFor(u graph.Vertex) (*boundView, error) {
	if _, owned := m.adj[u]; !owned {
		return nil, fmt.Errorf("cluster: vertex %d not owned by shard %d", u, m.cfg.Index)
	}
	m.mu.Lock()
	gen := m.storeGen
	// Per-row validity: the locality theorem says G_k(u) only changes
	// when the link-state delta touches B_k(u), so a view survives any
	// number of store generations as long as none of them dirtied u.
	if bv := m.views[u]; bv != nil && bv.gen >= m.viewGen[u] {
		m.mu.Unlock()
		return bv, nil
	}
	// Snapshot the store for an unlocked build; records are immutable
	// once stored, so sharing pointers is safe.
	recs := make(map[graph.Vertex]*record, len(m.store))
	for v, rec := range m.store {
		recs[v] = rec
	}
	m.mu.Unlock()

	view, complete := assembleView(recs, u, m.cfg.K)
	bv := &boundView{gen: gen, view: view, complete: complete, router: m.cfg.Alg.Bind(view, m.cfg.K)}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.storeGen == gen {
		m.views[u] = bv
	}
	// A store that moved on mid-build just means this bound view serves
	// one request from a slightly stale (still locally-consistent)
	// snapshot; the next request rebuilds at the new generation.
	return bv, nil
}

// assembleView is netsim's buildView over the member's record store:
// the union of announced adjacencies — tombstoned origins and edges
// into them excluded — trimmed to paths of length at most k rooted at
// u. The second result reports completeness: no vertex sits on the
// distance-k horizon, so u's whole component is inside the view and
// absence of a destination proves a partition.
func assembleView(recs map[graph.Vertex]*record, u graph.Vertex, k int) (*graph.Graph, bool) {
	return nbhd.ExtractView(unionGraph(recs).WithVertex(u), u, k)
}

// unionGraph materializes the tombstone-excluded union of all announced
// adjacencies: the member's whole picture of the topology. Tombstoned
// origins and edges into them are absent, so a peer withdrawal reads as
// vertex removal when two snapshots are diffed.
func unionGraph(recs map[graph.Vertex]*record) *graph.Graph {
	dead := make(map[graph.Vertex]bool)
	for origin, rec := range recs {
		if rec.tomb {
			dead[origin] = true
		}
	}
	b := graph.NewBuilder()
	for origin, rec := range recs {
		if rec.tomb {
			continue
		}
		b.AddVertex(origin)
		for _, w := range rec.adj {
			if dead[w] {
				continue
			}
			b.AddEdge(origin, w)
		}
	}
	return b.Build()
}

// captureStoreLocked snapshots the union graph before a batch of store
// mutations, or nil when no views are cached — with nothing to
// invalidate there is nothing to diff against, and views cached later
// are built from post-mutation snapshots anyway (viewFor only caches a
// build whose generation is still current).
func (m *Member) captureStoreLocked() *graph.Graph {
	if len(m.views) == 0 {
		return nil
	}
	return unionGraph(m.store)
}

// invalidateViewsLocked maps the store mutations since pre onto churn
// deltas and evicts exactly the owned rows inside the k-radius dirty
// set — the cluster face of the locality theorem: a link flap at {x, y}
// can only change G_k(u) for u within distance k of x or y, so every
// other member view survives the generation bump untouched. Call after
// m.storeGen has been advanced; pre == nil is a no-op.
func (m *Member) invalidateViewsLocked(pre *graph.Graph) {
	if pre == nil {
		return
	}
	post := unionGraph(m.store)
	deltas := churn.Diff(pre, post)
	if len(deltas) == 0 {
		return // e.g. a re-origination with identical adjacency
	}
	for _, v := range churn.DirtySet(pre, post, deltas, m.cfg.K) {
		if _, owned := m.adj[v]; !owned {
			continue
		}
		m.viewGen[v] = m.storeGen
		delete(m.views, v)
	}
}

// View exposes the discovered k-neighbourhood of an owned vertex for
// tests and the differential property (nil when u is not owned).
func (m *Member) View(u graph.Vertex) *graph.Graph {
	bv, err := m.viewFor(u)
	if err != nil {
		return nil
	}
	return bv.view
}
