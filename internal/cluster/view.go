package cluster

import (
	"slices"

	"klocal/internal/churn"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// epoch is one generation of a member's routing state: the union graph
// of its link-state store, one preprocessor over it, and the algorithm
// bound once through Over. All three are immutable once published
// behind Member.cur, so the per-hop path reads them with one atomic
// load and no member lock, and a cold owned view is one pre.At(u, sc).
// The router reads the union only through the view it is handed, which
// the preprocessor trims to G_k(u).
type epoch struct {
	union  *graph.Graph
	pre    *prep.Preprocessor
	router route.Func
}

// bind publishes a generation over union whose view cache is pre.
func (m *Member) bind(union *graph.Graph, pre *prep.Preprocessor) *epoch {
	return &epoch{union: union, pre: pre, router: m.cfg.Alg.Over(pre)}
}

// current returns the published generation, first building the union
// and a fresh preprocessor when the store changed while no view was
// cached.
func (m *Member) current() *epoch {
	if ep := m.cur.Load(); ep != nil {
		return ep
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.cur.Load()
	if ep == nil {
		u := unionGraph(m.store)
		ep = m.bind(u, prep.NewPreprocessor(u, m.cfg.K, m.cfg.Alg.Policy, prep.CacheOptions{}))
		m.cur.Store(ep)
	}
	return ep
}

// unionGraph builds, in one pass, the member's whole picture of the
// topology: the union of all announced adjacencies minus tombstoned
// origins and every edge into them.
func unionGraph(store map[graph.Vertex]*record) *graph.Graph {
	var edges []graph.Edge
	var live []graph.Vertex
	for origin, rec := range store {
		if rec.tomb {
			continue
		}
		live = append(live, origin)
		for _, w := range rec.adj {
			if r := store[w]; r == nil || !r.tomb {
				edges = append(edges, graph.Edge{U: origin, V: w})
			}
		}
	}
	return graph.FromEdges(edges, live...)
}

// putLocked stores rec as origin's record. While an epoch is published,
// a change of adjacency or liveness (not a bare sequence bump) joins the
// batch commitLocked applies; a stale union is rebuilt from the store.
func (m *Member) putLocked(origin graph.Vertex, rec *record) {
	old := m.store[origin]
	if m.cur.Load() != nil && (old == nil || old.tomb != rec.tomb || !slices.Equal(old.adj, rec.adj)) {
		m.changed = append(m.changed, origin)
	}
	m.store[origin] = rec
	m.storeGen++
}

// commitLocked closes a store-mutation batch. With no view cached it
// only marks the union stale, so discovery does no graph work.
// Otherwise it builds the post union once, turns the changed rows into
// deltas and derives the preprocessor over it: exactly the views in the
// k-radius dirty set rebuild, and every other view survives by pointer.
func (m *Member) commitLocked() {
	changed := m.changed
	m.changed = nil
	ep := m.cur.Load()
	switch {
	case len(changed) == 0 || ep == nil:
	case ep.pre.Stats().Size == 0:
		m.cur.Store(nil)
	default:
		post := unionGraph(m.store)
		if deltas := rowDeltas(ep.union, post, changed); len(deltas) > 0 {
			m.cur.Store(m.bind(post, ep.pre.Derive(post, churn.DirtySet(ep.union, post, deltas, m.cfg.K))))
		}
	}
}

// rowDeltas returns the deltas relating pre to post at the changed
// origins. An edge's presence depends only on its endpoints' records,
// so every edge the batch changed lies in a changed origin's row, and an
// origin that appears or vanishes is one vertex delta (its k-ball covers
// every incident edge).
func rowDeltas(pre, post *graph.Graph, changed []graph.Vertex) []churn.Delta {
	var deltas []churn.Delta
	for _, x := range changed {
		if was, is := pre.HasVertex(x), post.HasVertex(x); was != is {
			op := churn.AddVertex
			if was {
				op = churn.RemoveVertex
			}
			deltas = append(deltas, churn.Delta{Op: op, U: x})
			continue
		}
		a, b := pre.Adj(x), post.Adj(x) // both nil when x is absent
		for len(a) > 0 || len(b) > 0 {
			switch {
			case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
				deltas = append(deltas, churn.Delta{Op: churn.RemoveEdge, U: x, V: a[0]})
				a = a[1:]
			case len(a) == 0 || b[0] < a[0]:
				deltas = append(deltas, churn.Delta{Op: churn.AddEdge, U: x, V: b[0]})
				b = b[1:]
			default:
				a, b = a[1:], b[1:]
			}
		}
	}
	return deltas
}

// View returns the preprocessed G_k(u) of an owned vertex as the
// member's routing decisions see it (nil when u is not owned).
func (m *Member) View(u graph.Vertex) *prep.View {
	if _, owned := m.ownAdj(u); !owned {
		return nil
	}
	return m.current().pre.At(u, nil)
}
