package netsim

import (
	"fmt"
	"sort"

	"klocal/internal/graph"
)

// Topology dynamics. The paper notes that "the preprocessing step need
// not be repeated unless the network topology changes"; these methods
// realize the change-and-rediscover cycle: mutate links, then run
// Rediscover to flood fresh link state and rebuild every node's view and
// routing function. They must not be called concurrently with Send.

// ErrTooManyChanges means a node's link count outgrew the inbox headroom
// reserved at construction; build a fresh Network for larger changes.
// Callers can match it with errors.Is.
var ErrTooManyChanges = fmt.Errorf("netsim: node degree outgrew the reserved inbox capacity; rebuild the network")

// AddEdge inserts the link {u, v} and invalidates discovery state.
func (nw *Network) AddEdge(u, v graph.Vertex) error {
	if u == v {
		return fmt.Errorf("netsim: self-loop {%d,%d}", u, v)
	}
	nu, ok := nw.nodes[u]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	nv, ok := nw.nodes[v]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	if nw.g.HasEdge(u, v) {
		return nil
	}
	n := nw.g.N()
	if 4*n*(nw.g.Deg(u)+1)+32 > cap(nu.inbox) || 4*n*(nw.g.Deg(v)+1)+32 > cap(nv.inbox) {
		return ErrTooManyChanges
	}
	nw.g = nw.g.Union(graph.FromEdges([]graph.Edge{graph.NewEdge(u, v)}))
	nu.setNeighbors(nw.g.Adj(u))
	nv.setNeighbors(nw.g.Adj(v))
	nw.InvalidateDiscovery()
	return nil
}

// RemoveEdge deletes the link {u, v} and invalidates discovery state.
// Removing a cut edge leaves the network disconnected; after
// rediscovery, sends across the cut fail with ErrPartitioned.
func (nw *Network) RemoveEdge(u, v graph.Vertex) error {
	nu, ok := nw.nodes[u]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	nv, ok := nw.nodes[v]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	if !nw.g.HasEdge(u, v) {
		return nil
	}
	nw.g = nw.g.WithoutEdges([]graph.Edge{graph.NewEdge(u, v)})
	nu.setNeighbors(nw.g.Adj(u))
	nv.setNeighbors(nw.g.Adj(v))
	nw.InvalidateDiscovery()
	return nil
}

// Rediscover reruns the k-hop discovery protocol after topology changes
// and rebuilds every node's routing state. It is a no-op if discovery is
// current.
func (nw *Network) Rediscover() error {
	nw.mu.Lock()
	if nw.discovered {
		nw.mu.Unlock()
		return nil
	}
	nw.mu.Unlock()
	return nw.Discover()
}

// InvalidateDiscovery marks every node's discovered state stale so the
// next Discover or Rediscover rebuilds it. Topology mutations call it
// automatically; call it manually after Crash or Restart to make the
// surviving nodes re-detect the live topology.
func (nw *Network) InvalidateDiscovery() {
	nw.mu.Lock()
	nw.discovered = false
	nw.mu.Unlock()
	for _, nd := range nw.nodes {
		nd.mu.Lock()
		nd.learned = make(map[graph.Vertex]*lsaRec)
		nd.pending = make(map[graph.Vertex]map[graph.Vertex]*xfer)
		nd.deadNbrs = make(map[graph.Vertex]bool)
		nd.router = nil
		nd.pre = nil
		// ownSeq is stable storage: it survives so re-announcements
		// supersede anything still circulating from the previous epoch.
		nd.mu.Unlock()
	}
}

// setNeighbors atomically replaces the node's link list.
func (nd *node) setNeighbors(nbrs []graph.Vertex) {
	sorted := make([]graph.Vertex, len(nbrs))
	copy(sorted, nbrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	nd.mu.Lock()
	nd.neighbors = sorted
	nd.mu.Unlock()
}
