// Package prep implements the paper's k-local preprocessing step
// (Section 5.1): identifying dormant edges on local cycles, constructing
// the routing subgraph G'_k(u), and the global consistent-edge predicate
// used by Lemmas 2, 3 and 5.
//
// Dormancy rule. The paper classifies "the edge of minimum rank on every
// local cycle of u" as dormant. A cycle of length at most 2k through any
// of its own vertices is entirely contained in that vertex's
// k-neighbourhood, so the rule is equivalent, edge by edge, to: an edge
// e = {a,b} of G_k(u) is dormant iff G_k(u) contains a path from a to b of
// length at most 2k−1 using only edges of rank greater than rank(e). We
// apply this criterion to every short cycle visible in G_k(u), a superset
// of the cycles through u. For edges adjacent to u the two readings agree
// exactly (any short cycle through an edge at u passes through u), which
// is all the forwarding rules rely on (Lemma 2); for deeper edges our
// reading removes only globally inconsistent edges, preserving Lemmas 3
// and 5. DESIGN.md discusses the substitution.
package prep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// Policy selects which edge of each local cycle is classified dormant.
// The paper prescribes the minimum-rank edge; Section 6.1 suggests
// exploring other selections to reduce Algorithm 1's dilation, which the
// maximum-rank policy realizes as an ablation. Any globally canonical
// selection preserves the consistency lemmas.
type Policy int

const (
	// PolicyMinRank removes the minimum-rank edge of every local cycle
	// (the paper's rule).
	PolicyMinRank Policy = iota + 1
	// PolicyMaxRank removes the maximum-rank edge instead (the
	// Section 6.1 ablation).
	PolicyMaxRank
)

// String names the policy for experiment output.
func (p Policy) String() string {
	switch p {
	case PolicyMinRank:
		return "min-rank"
	case PolicyMaxRank:
		return "max-rank"
	default:
		return "unknown"
	}
}

// View is the preprocessed local view at a node, in the int-indexed form
// the routing decision paths read (DESIGN.md §14). It has two halves.
// The Case-1 half, C, is G_k(u) and its next hops: all that a decision
// whose destination t lies inside G_k(u) reads, and all that a cache
// miss builds. The routing half — the dormant edges, G'_k(u) and its
// classified components — is what Cases 2–4 read when t lies outside
// G_k(u). RoutingHalf builds it from C.Raw on first use and publishes it
// once, so a view is immutable apart from that one publication and
// concurrent routing workers share it freely. reference.go holds the
// map-shaped reference construction (PreprocessRef) the tests pin it
// to.
type View struct {
	Center graph.Vertex
	K      int
	// C holds the view's Case-1 half.
	C Compact

	// pol is the dormancy policy the routing half is built under.
	pol Policy
	// half is the routing half once built; see RoutingHalf.
	half atomic.Pointer[RoutingHalf]
}

// Compact is the Case-1 half of a preprocessed view: flat arrays over
// local indices that the per-hop decision reads with binary searches
// and array loads only. Local index order is label order, so every
// canonical rank tie-break is an int32 compare. The slices share a few
// backing arrays; none may be mutated.
type Compact struct {
	// Raw is the compact encoding of G_k(u).
	Raw *nbhd.CompactView
	// NextHop maps each Raw local index t to the canonical next hop from
	// the centre toward t inside G_k(u) (the lowest-labelled neighbour of
	// the centre on a shortest path), or graph.NoVertex when t is the
	// centre itself. Precomputing it turns the per-hop next-hop search
	// into one binary search and a load.
	NextHop []graph.Vertex
}

// RoutingHalf is the part of a preprocessed view that only the
// beyond-the-horizon rules read (t outside G_k(u)): the dormant edges,
// G'_k(u) and its classified components, in Routing's local index
// space. It depends on G_k(u) alone. The slices share a few backing
// arrays; none may be mutated.
type RoutingHalf struct {
	// Dormant lists the edges of G_k(u) classified dormant at this node,
	// in rank order.
	Dormant []graph.Edge
	// Routing is the compact encoding of G'_k(u): the dormant-free
	// neighbourhood re-restricted to paths of length at most k rooted at
	// the centre, with routing distances in its Dist column.
	Routing *nbhd.CompactView
	// Comps are the classified local components of G'_k(u) in Routing's
	// local index space, ordered by lowest root label.
	Comps []nbhd.CompactComponent
	// CompID maps each Routing local index to its component's position in
	// Comps, or -1 for the centre.
	CompID []int32
	// ActiveRoots lists the active neighbours of the centre (roots of
	// active components) in rank order. Its length is the centre's active
	// degree.
	ActiveRoots []graph.Vertex
}

// NextHopFromCenter returns the canonical next hop from the centre
// toward t inside G_k(u), or graph.NoVertex when t is outside the raw
// view or is the centre.
//
//klocal:hotpath
func (c *Compact) NextHopFromCenter(t graph.Vertex) graph.Vertex {
	ti, ok := c.Raw.Index(t)
	if !ok {
		return graph.NoVertex
	}
	return c.NextHop[ti]
}

// CompIdxOf returns the position in Comps of the component containing
// routing local index li, or -1 for the centre.
//
//klocal:hotpath
func (h *RoutingHalf) CompIdxOf(li int32) int32 { return h.CompID[li] }

// RoutingHalf returns the view's routing half. The first call builds it
// from C.Raw alone — never from the store, so the decision that needs it
// stays k-local — and publishes it through an atomic pointer; a caller
// that loses a concurrent first build returns the winner's half, so
// every caller sees the same pointer. Later calls are one atomic load.
//
//klocal:hotpath
func (v *View) RoutingHalf() *RoutingHalf {
	if h := v.half.Load(); h != nil {
		return h
	}
	h := buildRoutingHalf(v.C.Raw, v.pol)
	if v.half.CompareAndSwap(nil, h) {
		return h
	}
	return v.half.Load()
}

// PreprocessStore computes the Case-1 half of the view at u for
// locality k under policy pol, reading topology through st:
// nbhd.Scratch.Extract lands G_k(u) in local index space, one centre
// BFS on pooled scratch finds the next hops, and the result is copied
// into a few flat slices. The routing half waits for RoutingHalf.
func PreprocessStore(st bigraph.Store, u graph.Vertex, k int, pol Policy) *View {
	b := builders.Get().(*builder)
	defer builders.Put(b)
	if !b.sc.Extract(st, u, k) {
		// Absent centre or negative k: the empty view.
		return emptyView(u, k, pol)
	}
	return b.view(pol)
}

// IsDormant reports whether the view classified e as dormant, by binary
// search in the rank-ordered Dormant list (no per-view edge map). It
// builds the routing half if the view has none yet.
//
//klocal:hotpath
func (v *View) IsDormant(e graph.Edge) bool {
	e = graph.NewEdge(e.U, e.V)
	es := v.RoutingHalf().Dormant
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].Less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(es) && es[lo] == e
}

// ActiveDegree returns the number of active neighbours of the centre
// (Propositions 1–3 bound it by 3, 2 and 1 at k ≥ n/4, n/3, n/2 given the
// matching algorithm's preprocessing). It builds the routing half if the
// view has none yet.
func (v *View) ActiveDegree() int { return len(v.RoutingHalf().ActiveRoots) }

// CacheOptions tune the preprocessor's view cache. The zero value means
// defaults: DefaultShards lock shards, unbounded capacity.
type CacheOptions struct {
	// Shards is the number of independently locked cache shards; views
	// hash across shards by vertex so concurrent routing workers rarely
	// contend. Rounded up to a power of two. 0 means DefaultShards.
	Shards int
	// Capacity bounds the total number of cached views across all
	// shards; an insert past it evicts an arbitrary resident view, from
	// the inserting shard first and the others after it (random
	// replacement — adequate because routing workloads revisit sources
	// far more often than they scan). 0 means unbounded.
	Capacity int
}

// DefaultShards is the shard count used when CacheOptions.Shards is 0.
const DefaultShards = 8

// CacheStats is a point-in-time snapshot of preprocessor cache activity.
type CacheStats struct {
	// Hits counts At calls served from the cache.
	Hits int64
	// Misses counts At calls that ran preprocessing. Concurrent misses
	// on the same vertex each count (both compute; one insert wins), so
	// Misses can slightly exceed the number of distinct vertices.
	Misses int64
	// Evictions counts views discarded to respect Capacity.
	Evictions int64
	// Size is the number of views currently resident.
	Size int64
}

// Delta returns the activity between two snapshots of the same
// preprocessor: the counting fields subtract (s − prev) and Size keeps
// s's absolute value. Dividing a Delta's counts by the scrape interval
// yields rate gauges (hits/s, misses/s, evictions/s) for live
// observability. Counters from a different (e.g. freshly swapped)
// preprocessor would go negative; they clamp to zero so a graph
// hot-swap never reports negative rates.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	d := CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		Size:      s.Size,
	}
	if d.Hits < 0 {
		d.Hits = 0
	}
	if d.Misses < 0 {
		d.Misses = 0
	}
	if d.Evictions < 0 {
		d.Evictions = 0
	}
	return d
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// prepShard is one lock-striped portion of the view cache.
//
// Reads are two-level: frozen is an immutable map published through an
// atomic pointer — warm hits resolve against it with no lock and no
// shared-cacheline write beyond this shard's own padded hit counter —
// and live holds entries inserted since the last freeze, guarded by mu.
// When live outgrows frozen, the two merge into a fresh frozen map
// (amortized O(1) per insert) so a prewarmed cache serves every hit
// lock-free. Bounded caches (Capacity > 0) skip the frozen level and
// keep everything in live, preserving the exact eviction semantics.
//
// The counters live in the shard and the struct is padded past a cache
// line, so hit accounting from different workers never false-shares —
// the previous design's four global atomics serialized every warm hit
// in the pool.
type prepShard struct {
	frozen atomic.Pointer[map[graph.Vertex]*View]
	mu     sync.Mutex
	live   map[graph.Vertex]*View

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64

	_ [64]byte // pad: neighbouring shards' counters must not share a line
}

// Preprocessor caches per-node views for a fixed network and locality.
// The preprocessing step "need not be repeated unless the network topology
// changes", so views are computed once per node and shared. It is safe
// for concurrent use: the cache is sharded by vertex, a view is
// published only via the shard lock, and it is immutable afterwards
// apart from the once-only publication of its routing half.
//
// Under concurrent misses for the same vertex both callers compute the
// view and the first insert wins; the duplicate work is bounded and
// lock-free, which beats serializing whole shards behind preprocessing
// (BFS-heavy) critical sections.
type Preprocessor struct {
	st  bigraph.Store
	k   int
	pol Policy

	shards   []prepShard
	mask     uint64
	capacity int // per whole cache; 0 = unbounded
}

// NewPreprocessor returns a caching preprocessor over any bigraph.Store
// (mmap'd CSR files included) at locality k under dormancy policy pol,
// with explicit cache tuning (the zero CacheOptions means defaults).
func NewPreprocessor(st bigraph.Store, k int, pol Policy, opts CacheOptions) *Preprocessor {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so vertex hashing is a mask.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	p := &Preprocessor{
		st:       st,
		k:        k,
		pol:      pol,
		shards:   make([]prepShard, shards),
		mask:     uint64(shards - 1),
		capacity: opts.Capacity,
	}
	for i := range p.shards {
		p.shards[i].live = make(map[graph.Vertex]*View)
	}
	return p
}

// K returns the locality parameter.
func (p *Preprocessor) K() int { return p.k }

// Store returns the underlying network store (never nil).
func (p *Preprocessor) Store() bigraph.Store { return p.st }

// Policy returns the dormancy policy.
func (p *Preprocessor) Policy() Policy { return p.pol }

// Stats returns a snapshot of cache activity, summed over the shards.
func (p *Preprocessor) Stats() CacheStats {
	var s CacheStats
	for i := range p.shards {
		sh := &p.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Size += sh.size.Load()
	}
	return s
}

// totalSize sums resident views across shards (the capacity check).
func (p *Preprocessor) totalSize() int64 {
	var n int64
	for i := range p.shards {
		n += p.shards[i].size.Load()
	}
	return n
}

// shardIdx picks the lock shard for u (Fibonacci hashing spreads the
// typically consecutive vertex labels).
func (p *Preprocessor) shardIdx(u graph.Vertex) uint64 {
	return ((uint64(u) * 0x9e3779b97f4a7c15) >> 32) & p.mask
}

// shardOf returns the lock shard for u.
func (p *Preprocessor) shardOf(u graph.Vertex) *prepShard {
	return &p.shards[p.shardIdx(u)]
}

// At returns the (cached) view at u. Warm hits on an unbounded cache
// resolve against the shard's frozen map: one atomic load, no lock, no
// cross-shard cacheline traffic.
//
//klocal:hotpath
func (p *Preprocessor) At(u graph.Vertex) *View {
	home := p.shardIdx(u)
	sh := &p.shards[home]
	if m := sh.frozen.Load(); m != nil {
		if v, ok := (*m)[u]; ok {
			sh.hits.Add(1)
			return v
		}
	}
	sh.mu.Lock()
	if v, ok := sh.live[u]; ok {
		sh.mu.Unlock()
		sh.hits.Add(1)
		return v
	}
	sh.mu.Unlock()
	sh.misses.Add(1)
	v := PreprocessStore(p.st, u, p.k, p.pol)
	if cur := sh.publish(u, v, p.capacity == 0); cur != v {
		return cur
	}
	if p.capacity > 0 {
		p.trim(home, u)
	}
	return v
}

// publish inserts v as u's view unless a concurrent miss published one
// first, and returns the view every caller shares.
func (sh *prepShard) publish(u graph.Vertex, v *View, freeze bool) *View {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.live[u]; ok {
		return cur
	}
	if m := sh.frozen.Load(); m != nil {
		// A concurrent freeze may have moved the winning entry out of
		// live; freezes happen under mu, so this read is stable.
		if cur, ok := (*m)[u]; ok {
			return cur
		}
	}
	sh.live[u] = v
	sh.size.Add(1)
	if freeze {
		sh.maybeFreezeLocked(false)
	}
	return v
}

// trim evicts resident views until the whole cache is back within
// capacity: random replacement (map iteration order), starting in the
// inserting shard and moving on to the next ones, so a bound below the
// shard count holds too. The view just inserted for spare survives.
// One shard lock at a time; concurrent trims may each evict, which only
// undershoots the bound.
func (p *Preprocessor) trim(home uint64, spare graph.Vertex) {
	limit := int64(p.capacity)
	for i := uint64(0); i <= p.mask && p.totalSize() > limit; i++ {
		sh := &p.shards[(home+i)&p.mask]
		sh.mu.Lock()
		for w := range sh.live {
			if p.totalSize() <= limit {
				break
			}
			if w == spare {
				continue
			}
			delete(sh.live, w)
			sh.size.Add(-1)
			sh.evictions.Add(1)
		}
		sh.mu.Unlock()
	}
}

// maybeFreezeLocked merges live into a fresh frozen map when live has
// caught up with frozen (or unconditionally when force is set), then
// resets live. Doubling-style growth keeps the merge cost amortized O(1)
// per insert. Caller holds sh.mu.
func (sh *prepShard) maybeFreezeLocked(force bool) {
	const freezeMin = 32
	var frozen map[graph.Vertex]*View
	if m := sh.frozen.Load(); m != nil {
		frozen = *m
	}
	if !force && (len(sh.live) < freezeMin || len(sh.live) < len(frozen)) {
		return
	}
	if len(sh.live) == 0 {
		return
	}
	merged := make(map[graph.Vertex]*View, len(frozen)+len(sh.live))
	for w, v := range frozen {
		merged[w] = v
	}
	for w, v := range sh.live {
		merged[w] = v
	}
	sh.frozen.Store(&merged)
	sh.live = make(map[graph.Vertex]*View)
}

// Prewarm computes and caches the view of every vertex using `workers`
// goroutines (GOMAXPROCS when ≤ 0), so later routing never pays the
// extraction and next-hop latency. It builds Case-1 halves only: a
// view's routing half costs one build, on the first decision that finds
// its destination outside G_k(u). With a bounded cache smaller than the
// vertex count, prewarming fills the cache and stops early.
func (p *Preprocessor) Prewarm(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	limit := p.st.N()
	if p.capacity > 0 && limit > p.capacity {
		limit = p.capacity
	}
	if limit == 0 {
		return
	}
	vs := make([]graph.Vertex, 0, limit)
	p.st.EachVertex(func(v graph.Vertex) bool {
		vs = append(vs, v)
		return len(vs) < limit
	})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(vs) {
					return
				}
				p.At(vs[i])
			}
		}()
	}
	wg.Wait()
	if p.capacity == 0 {
		// Freeze the remainder so a prewarmed cache serves every
		// subsequent hit lock-free.
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			sh.maybeFreezeLocked(true)
			sh.mu.Unlock()
		}
	}
}

// ConsistentEdges returns the globally consistent edges of g at locality
// k: edges that no node classifies dormant. By Lemma 3 the consistent
// subgraph connects every vertex pair; by Lemma 5 it has girth at least
// 2k+1.
func ConsistentEdges(g *graph.Graph, k int) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		inconsistent := g.HasPathAvoiding(e.U, e.V, 2*k-1, func(f graph.Edge) bool {
			return e.Less(f)
		})
		if !inconsistent {
			out = append(out, e)
		}
	}
	return out
}

// ConsistentSubgraph returns g restricted to its consistent edges (all
// vertices kept).
func ConsistentSubgraph(g *graph.Graph, k int) *graph.Graph {
	keep := make(map[graph.Edge]bool)
	for _, e := range ConsistentEdges(g, k) {
		keep[e] = true
	}
	return g.FilterEdges(func(e graph.Edge) bool { return keep[e] })
}
