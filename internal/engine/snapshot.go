// Package engine is the high-throughput traffic layer: it routes batches
// of (s, t) requests concurrently over any of the paper's algorithms.
//
// The pieces:
//
//   - Snapshot: an immutable binding of (network, locality, algorithm)
//     whose per-vertex preprocessing lives behind a lock-free,
//     lazily-populated, size-bounded cache (prep.Preprocessor), so the
//     paper's "preprocessing need not be repeated" observation is
//     realized once per source vertex instead of once per message.
//
//   - Engine: W lanes, each one sim.Scratch and one metrics shard. A
//     caller checks a lane out, routes on its own goroutine and hands
//     it back, so at most W requests route at once and a caller that
//     finds every lane busy waits within its admission budget. The
//     per-lane shards merge into a metrics.Report.
//
//   - Workload: pluggable deterministic request generators — uniform
//     random pairs, Zipf-skewed destinations, all-pairs, and the paper's
//     adversarial constructions from internal/adversary.
package engine

import (
	"fmt"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// Snapshot is an immutable view of a network bound to one algorithm at
// one locality. It is safe for concurrent use: the network never
// mutates, the routing function is shared (see route's goroutine-safety
// contracts), and preprocessing is cached behind the lock-free view
// cache of pre, which also carries the network and the locality. Build
// a new Snapshot when the topology changes.
type Snapshot struct {
	alg route.Algorithm
	pre *prep.Preprocessor
	w   *sim.Walker
}

// SnapshotOptions tune snapshot construction.
type SnapshotOptions struct {
	// Cache tunes the view cache.
	Cache prep.CacheOptions
	// Prewarm computes every vertex's view at construction using this
	// many goroutines (0 = no prewarm, <0 = GOMAXPROCS).
	Prewarm int
}

// NewSnapshotStore binds alg to a bigraph.Store at locality k: a
// materialized *graph.Graph, or a CSR store of a million-node network,
// possibly an mmap'd file that routing never materializes. k = 0 means
// the algorithm's own threshold T(n) (minimum 1).
//
// Only graph-backed results carry Result.Dist; on other stores it stays
// 0 ("unknown"): stretch metrics are skipped, delivery/loop/error
// counters are exact.
func NewSnapshotStore(st bigraph.Store, k int, alg route.Algorithm, opts SnapshotOptions) (*Snapshot, error) {
	if g, isGraph := st.(*graph.Graph); st == nil || isGraph && g == nil || st.N() == 0 {
		return nil, fmt.Errorf("engine: empty network")
	}
	if k == 0 {
		k = alg.MinK(st.N())
		if k == 0 {
			k = 1
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("engine: negative locality %d", k)
	}
	s := &Snapshot{alg: alg, pre: prep.NewPreprocessor(st, k, alg.Policy, opts.Cache)}
	if s.w = sim.Over(alg, s.pre); s.w == nil {
		return nil, fmt.Errorf("engine: algorithm %s needs full topology and cannot bind to a graph store", alg.Name)
	}
	if opts.Prewarm != 0 {
		w := opts.Prewarm
		if w < 0 {
			w = 0 // prep interprets ≤0 as GOMAXPROCS
		}
		s.pre.Prewarm(w)
	}
	return s, nil
}

// Incremental returns a snapshot over the post-delta graph next that
// adopts every cached view of s except those of the dirty vertices
// (churn.Apply's output) — the churn fast path: instead of re-running
// preprocessing for all n vertices, only the |dirty| views inside the
// k-ball of the delta are recomputed, lazily on first use. s itself is
// untouched and remains fully consistent, so in-flight routes on the
// old epoch never observe the new topology.
func (s *Snapshot) Incremental(next *graph.Graph, dirty []graph.Vertex) (*Snapshot, error) {
	if next == nil || next.N() == 0 {
		return nil, fmt.Errorf("engine: incremental swap to empty network")
	}
	ns := &Snapshot{alg: s.alg, pre: s.pre.Derive(next, dirty)}
	ns.w = sim.Over(s.alg, ns.pre)
	return ns, nil
}

// Graph returns the underlying network as a *graph.Graph, or nil for
// store-backed snapshots (use Store for the universal handle).
func (s *Snapshot) Graph() *graph.Graph {
	g, _ := s.pre.Store().(*graph.Graph)
	return g
}

// Store returns the underlying network store (never nil).
func (s *Snapshot) Store() bigraph.Store { return s.pre.Store() }

// K returns the locality parameter the snapshot is bound at.
func (s *Snapshot) K() int { return s.pre.K() }

// Algorithm returns the bound algorithm descriptor.
func (s *Snapshot) Algorithm() route.Algorithm { return s.alg }

// Func returns the snapshot's decision as f(s, t, u, v), fetching u's
// view on a scratch private to the returned function: use it from one
// goroutine, to time single decisions.
func (s *Snapshot) Func() func(src, dst, u, v graph.Vertex) (graph.Vertex, error) {
	sc := prep.NewScratch()
	return func(src, dst, u, v graph.Vertex) (graph.Vertex, error) {
		return s.w.Decide(src, dst, u, v, sc)
	}
}

// CacheStats reports the view-cache activity.
func (s *Snapshot) CacheStats() prep.CacheStats { return s.pre.Stats() }

// Route routes one message on the snapshot (the engine's per-request
// body, also usable standalone). Store-backed snapshots skip the global
// dist(s, t) computation (Result.Dist stays 0).
func (s *Snapshot) Route(src, dst graph.Vertex, maxSteps int) *sim.Result {
	return s.RouteScratch(src, dst, maxSteps, sim.NewScratch())
}

// RouteScratch is Route allocating only into sc — the engine lanes'
// per-request body, whose views and decisions run on the prep scratch
// inside sc. The returned Result is owned by sc (sim.Walker.RunScratch's
// contract): valid until the next route with the same scratch, Clone to
// retain.
//
//klocal:hotpath
func (s *Snapshot) RouteScratch(src, dst graph.Vertex, maxSteps int, sc *sim.Scratch) *sim.Result {
	return s.w.RunScratch(src, dst, maxSteps, sc)
}
