package netsim

import (
	"fmt"

	"klocal/internal/graph"
)

// Topology dynamics. The paper notes that "the preprocessing step need
// not be repeated unless the network topology changes"; these methods
// realize the change-and-rediscover cycle: mutate links, then run
// Rediscover to flood fresh link state and rebuild every node's view and
// routing function. They must not be called concurrently with Send.

// AddEdge inserts the link {u, v} and invalidates discovery state.
func (nw *Network) AddEdge(u, v graph.Vertex) error {
	if u == v {
		return fmt.Errorf("netsim: self-loop {%d,%d}", u, v)
	}
	nu, nv, err := nw.endpoints(u, v)
	if err != nil {
		return err
	}
	if nw.g.HasEdge(u, v) {
		return nil
	}
	nw.g = nw.g.WithEdge(u, v)
	nu.neighbors, nv.neighbors = nw.g.Adj(u), nw.g.Adj(v)
	nw.InvalidateDiscovery()
	return nil
}

// RemoveEdge deletes the link {u, v} and invalidates discovery state.
// Removing a cut edge leaves the network disconnected; after
// rediscovery, sends across the cut fail with ErrPartitioned.
func (nw *Network) RemoveEdge(u, v graph.Vertex) error {
	nu, nv, err := nw.endpoints(u, v)
	if err != nil {
		return err
	}
	if !nw.g.HasEdge(u, v) {
		return nil
	}
	nw.g = nw.g.WithoutEdges([]graph.Edge{graph.NewEdge(u, v)})
	nu.neighbors, nv.neighbors = nw.g.Adj(u), nw.g.Adj(v)
	nw.InvalidateDiscovery()
	return nil
}

// endpoints returns the nodes of a link's two endpoints.
func (nw *Network) endpoints(u, v graph.Vertex) (*node, *node, error) {
	nu, ok := nw.nodes[u]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	nv, ok := nw.nodes[v]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	return nu, nv, nil
}

// Rediscover reruns the k-hop discovery protocol after topology changes
// and rebuilds every node's routing state. It is a no-op if discovery is
// current.
func (nw *Network) Rediscover() error {
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
	for _, nd := range nw.order {
		nd.reset()
	}
}
