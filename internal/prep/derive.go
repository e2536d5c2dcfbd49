package prep

import (
	"maps"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// This file is the churn-facing side of the view cache. A topology
// delta on edge {x, y} can change G_k(u) only for u within distance k
// of x or y (the locality theorem read as an invalidation bound —
// internal/churn computes that dirty set); every other cached view is
// still byte-identical on the new topology and must survive.
//
// Derive builds a NEW preprocessor over the post-delta store that
// adopts every surviving view and recomputes only the dirty ones
// lazily. The receiver is left untouched, so in-flight routes keep
// reading a consistent (old graph, old views) pair — the epoch
// isolation klocald's PATCH /graph path relies on.

// Derive returns a preprocessor bound to st — the post-delta topology —
// that adopts every cached view of p except those of dirty vertices.
// Cache tuning (shards, capacity, policy, locality) carries over; p is
// not modified and stays fully usable over its own store, so old-epoch
// readers and the derived new epoch never observe a torn
// (graph, views) pair. The adopted views are frozen, so warm hits on
// the new epoch are lock-free immediately.
//
// Each shard's frozen map is cloned wholesale (a flat copy, no
// per-entry re-insertion), its live entries are added, and its dirty
// rows deleted: O(|dirty| + |live|) map operations plus one clone per
// shard.
func (p *Preprocessor) Derive(st bigraph.Store, dirty []graph.Vertex) *Preprocessor {
	np := NewPreprocessor(st, p.k, p.pol, CacheOptions{
		Shards:   len(p.shards),
		Capacity: p.capacity,
	})
	// Same shard count ⇒ same vertex→shard map.
	byShard := make([][]graph.Vertex, len(p.shards))
	for _, u := range dirty {
		i := p.shardIdx(u)
		byShard[i] = append(byShard[i], u)
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		var adopted map[graph.Vertex]*View
		if m := sh.frozen.Load(); m != nil {
			adopted = maps.Clone(*m)
		}
		if adopted == nil {
			adopted = make(map[graph.Vertex]*View, len(sh.live))
		}
		maps.Copy(adopted, sh.live)
		sh.mu.Unlock()
		for _, u := range byShard[i] {
			delete(adopted, u)
		}
		if len(adopted) == 0 {
			continue
		}
		nsh := &np.shards[i]
		if np.capacity > 0 {
			// Bounded caches keep everything in live to preserve the
			// eviction semantics; adoption can never exceed the old
			// residency, which respected the same capacity.
			nsh.live = adopted
		} else {
			nsh.frozen.Store(&adopted)
		}
		nsh.size.Store(int64(len(adopted)))
	}
	return np
}
