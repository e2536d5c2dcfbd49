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
// selection preserves the consistency lemmas. The zero Policy, which
// Algorithm 3 and the baselines carry, classifies no edge dormant, so a
// view's routing half is G_k(u) itself, classified: what Algorithm 3's
// Lemma 12 move reads.
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
	case 0:
		return "none"
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

// RoutingHalf is RoutingHalfScratch on the shared scratch, for callers
// off the routing path.
func (v *View) RoutingHalf() *RoutingHalf { return v.RoutingHalfScratch(nil) }

// RoutingHalfScratch returns the view's routing half. The first call
// builds it on sc from C.Raw alone — never from the store, so the
// decision that needs it stays k-local — and publishes it through an
// atomic pointer; a caller that loses a concurrent first build returns
// the winner's half. Later calls are one atomic load.
//
//klocal:hotpath
func (v *View) RoutingHalfScratch(sc *Scratch) *RoutingHalf {
	if h := v.half.Load(); h != nil {
		return h
	}
	b := acquire(sc)
	h := b.routingHalf(v.C.Raw, v.pol)
	release(b)
	if v.half.CompareAndSwap(nil, h) {
		return h
	}
	return v.half.Load()
}

// PreprocessStore computes the Case-1 half of the view at u for
// locality k under policy pol, reading topology through st:
// nbhd.Scratch.Extract lands G_k(u) in local index space, one centre
// BFS finds the next hops, and the result is copied into a few flat
// slices. The routing half waits for RoutingHalf. It builds on the
// shared scratch, so concurrent callers serialize; walkers build
// through Preprocessor.At on their own.
func PreprocessStore(st bigraph.Store, u graph.Vertex, k int, pol Policy) *View {
	b := acquire(nil)
	defer release(b)
	return b.view(st, u, k, pol)
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
// an unbounded cache.
type CacheOptions struct {
	// Capacity bounds the number of cached views. A bounded cache is
	// direct-mapped: it has min(n, Capacity) slots, the vertex of dense
	// index i lives in slot i mod slots, and a miss replaces whatever
	// view held its slot (arbitrary replacement — adequate because
	// routing workloads revisit sources far more often than they scan).
	// 0 means unbounded: one slot per vertex, never evicted.
	Capacity int
}

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
	// Size is the number of views currently resident. A derived
	// preprocessor shares table pages with its parent (see Derive), and
	// a view that another epoch publishes into a shared page is not
	// counted here, so Size may under-count; it never over-counts.
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

// The view table is split into pages of pageSize slots behind a
// directory, the unit Derive shares between epochs or copies.
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// viewPage is one page of view slots; a nil slot holds no view.
type viewPage [pageSize]atomic.Pointer[View]

// statStripes is the number of counter stripes; a slot counts on
// stripe slot mod statStripes.
const statStripes = 8

// counters is one stripe of cache activity counters, padded past a
// cache line so that hit accounting from different workers rarely
// contends and never false-shares.
type counters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64

	_ [64]byte
}

// Preprocessor caches per-node views for a fixed network and locality.
// The preprocessing step "need not be repeated unless the network topology
// changes", so views are computed once per node and shared.
//
// The cache is a table of view slots addressed by the store's dense
// vertex index and split into fixed pages behind a directory. An
// unbounded cache has one slot per vertex; a bounded one is
// direct-mapped (CacheOptions.Capacity). A hit is an index lookup, one
// atomic load and a centre check. A miss builds the view outside any
// lock and publishes it with a compare-and-swap; under concurrent
// misses for the same vertex both callers compute and the first
// publication wins, a bounded duplicate that beats serializing lookups
// behind preprocessing. A view is immutable once published apart from
// the once-only publication of its routing half, so the cache is
// lock-free and safe for concurrent use.
type Preprocessor struct {
	st  bigraph.Store
	k   int
	pol Policy

	capacity int    // whole-cache bound; 0 = unbounded
	slots    uint32 // n, or min(n, capacity) when bounded
	// dir holds the table's pages, page j covering slots
	// [j·pageSize, (j+1)·pageSize); it is filled before p is shared and
	// never written after.
	dir []*viewPage

	stats [statStripes]counters
}

// NewPreprocessor returns a caching preprocessor over any bigraph.Store
// (mmap'd CSR files included) at locality k under dormancy policy pol,
// with explicit cache tuning (the zero CacheOptions means defaults).
func NewPreprocessor(st bigraph.Store, k int, pol Policy, opts CacheOptions) *Preprocessor {
	p := newTable(st, k, pol, opts.Capacity)
	for j := range p.dir {
		p.dir[j] = new(viewPage)
	}
	return p
}

// newTable returns a preprocessor whose directory is sized for st but
// holds no pages yet.
func newTable(st bigraph.Store, k int, pol Policy, capacity int) *Preprocessor {
	slots := st.N()
	if capacity > 0 && capacity < slots {
		slots = capacity
	}
	return &Preprocessor{
		st:       st,
		k:        k,
		pol:      pol,
		capacity: capacity,
		slots:    uint32(slots),
		dir:      make([]*viewPage, (slots+pageMask)>>pageBits),
	}
}

// K returns the locality parameter.
func (p *Preprocessor) K() int { return p.k }

// Store returns the underlying network store (never nil).
func (p *Preprocessor) Store() bigraph.Store { return p.st }

// Policy returns the dormancy policy.
func (p *Preprocessor) Policy() Policy { return p.pol }

// Options returns the cache tuning p was built with.
func (p *Preprocessor) Options() CacheOptions { return CacheOptions{Capacity: p.capacity} }

// Stats returns a snapshot of cache activity, summed over the counter
// stripes.
func (p *Preprocessor) Stats() CacheStats {
	var s CacheStats
	for i := range p.stats {
		c := &p.stats[i]
		s.Hits += c.hits.Load()
		s.Misses += c.misses.Load()
		s.Evictions += c.evictions.Load()
		s.Size += c.size.Load()
	}
	return s
}

// slot returns the table slot of dense index i: i itself on an
// unbounded cache, i mod slots on a bounded one.
//
//klocal:hotpath
func (p *Preprocessor) slot(i int32) uint32 {
	s := uint32(i)
	if s >= p.slots {
		s %= p.slots
	}
	return s
}

// At returns the (cached) view at u, building it on sc on a miss (on the
// shared scratch when sc is nil, for callers off the routing path). A
// label absent from the store gets its empty view, which is not cached.
//
//klocal:hotpath
func (p *Preprocessor) At(u graph.Vertex, sc *Scratch) *View {
	i, ok := p.st.Index(u)
	if !ok {
		p.stats[0].misses.Add(1)
		return emptyView(u, p.k, p.pol)
	}
	s := p.slot(i)
	c := &p.stats[s%statStripes]
	if v := p.dir[s>>pageBits][s&pageMask].Load(); v != nil && v.Center == u {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	b := acquire(sc)
	v := b.view(p.st, u, p.k, p.pol)
	release(b)
	return p.publish(s, v)
}

// publish installs v in slot s unless a concurrent miss on the same
// vertex published first, and returns the view every caller shares. On
// a bounded cache the slot may hold another vertex's view, which v
// evicts.
func (p *Preprocessor) publish(s uint32, v *View) *View {
	slot := &p.dir[s>>pageBits][s&pageMask]
	c := &p.stats[s%statStripes]
	for {
		cur := slot.Load()
		if cur != nil && cur.Center == v.Center {
			return cur
		}
		if slot.CompareAndSwap(cur, v) {
			if cur == nil {
				c.size.Add(1)
			} else {
				c.evictions.Add(1)
			}
			return v
		}
	}
}

// Prewarm computes and caches the view of every vertex using `workers`
// goroutines (GOMAXPROCS when ≤ 0), each on a scratch of its own, so
// later routing never pays the extraction and next-hop latency. It
// builds Case-1 halves only: a
// view's routing half costs one build, on the first decision that finds
// its destination outside G_k(u). With a bounded cache smaller than the
// vertex count, prewarming fills every slot with the lowest-labelled
// vertices and stops.
func (p *Preprocessor) Prewarm(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	limit := int(p.slots)
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
			sc := NewScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(vs) {
					return
				}
				p.At(vs[i], sc)
			}
		}()
	}
	wg.Wait()
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
