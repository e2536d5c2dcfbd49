// Package churn is the incremental-topology subsystem: single-edge and
// single-vertex deltas applied to a copy-on-write graph, each returning
// the exact set of vertices whose k-neighbourhood view the delta can
// have changed.
//
// The dirty set is the paper's locality theorem read as a performance
// property: a routing decision at u depends only on G_k(u), so a link
// flap on {x, y} can change cached views only at vertices within
// distance k of x or y. Apply computes that ball by bounded BFS over
// both the pre- and the post-graph (removal is visible only in the pre
// ball, addition only in the post ball) and everything outside it
// provably keeps its view — prep.Preprocessor.Derive drops the dirty
// rows and adopts the rest.
package churn

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"klocal/internal/graph"
)

// Op identifies the kind of a topology delta.
type Op int

const (
	// AddEdge inserts the undirected edge {U, V}, creating absent
	// endpoints implicitly.
	AddEdge Op = iota
	// RemoveEdge deletes the undirected edge {U, V}; both endpoints
	// stay, possibly isolated.
	RemoveEdge
	// AddVertex inserts the isolated vertex U (V is ignored).
	AddVertex
	// RemoveVertex deletes U and every incident edge (V is ignored).
	RemoveVertex
)

func (o Op) String() string {
	switch o {
	case AddEdge:
		return "add-edge"
	case RemoveEdge:
		return "remove-edge"
	case AddVertex:
		return "add-vertex"
	case RemoveVertex:
		return "remove-vertex"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Delta is one topology mutation. V is meaningful only for edge ops.
type Delta struct {
	Op Op           `json:"op"`
	U  graph.Vertex `json:"u"`
	V  graph.Vertex `json:"v,omitempty"`
}

func (d Delta) String() string {
	switch d.Op {
	case AddVertex, RemoveVertex:
		return fmt.Sprintf("%s(%d)", d.Op, d.U)
	default:
		return fmt.Sprintf("%s{%d,%d}", d.Op, d.U, d.V)
	}
}

// Validation errors returned (wrapped) by Apply.
var (
	ErrSelfLoop      = errors.New("churn: self-loop edge")
	ErrEdgeExists    = errors.New("churn: edge already present")
	ErrEdgeMissing   = errors.New("churn: edge not present")
	ErrVertexExists  = errors.New("churn: vertex already present")
	ErrVertexMissing = errors.New("churn: vertex not present")
	// ErrReservedLabel rejects graph.NoVertex as a vertex label: the
	// routing code reads it as "no predecessor" and "no next hop", so a
	// vertex carrying it would be unroutable.
	ErrReservedLabel = errors.New("churn: vertex label is the reserved NoVertex sentinel")
	errUnknownOp     = errors.New("churn: unknown op")
)

// touched returns the endpoints whose k-balls bound the delta's effect:
// both endpoints for edge ops, the vertex alone for vertex ops (an
// ex- or new neighbour of U is at distance 1 ≤ k of U, so U's ball
// already covers every row a vertex op can change).
func (d Delta) touched() []graph.Vertex {
	if d.Op == AddVertex || d.Op == RemoveVertex {
		return []graph.Vertex{d.U}
	}
	return []graph.Vertex{d.U, d.V}
}

// check validates d against g without applying it.
func (d Delta) check(g *graph.Graph) error {
	if d.U == graph.NoVertex || (d.Op == AddEdge || d.Op == RemoveEdge) && d.V == graph.NoVertex {
		return fmt.Errorf("%w: %v", ErrReservedLabel, d)
	}
	switch d.Op {
	case AddEdge:
		if d.U == d.V {
			return fmt.Errorf("%w: %v", ErrSelfLoop, d)
		}
		if g.HasEdge(d.U, d.V) {
			return fmt.Errorf("%w: %v", ErrEdgeExists, d)
		}
	case RemoveEdge:
		if !g.HasEdge(d.U, d.V) {
			return fmt.Errorf("%w: %v", ErrEdgeMissing, d)
		}
	case AddVertex:
		if g.HasVertex(d.U) {
			return fmt.Errorf("%w: %v", ErrVertexExists, d)
		}
	case RemoveVertex:
		if !g.HasVertex(d.U) {
			return fmt.Errorf("%w: %v", ErrVertexMissing, d)
		}
	default:
		return fmt.Errorf("%w: %v", errUnknownOp, d)
	}
	return nil
}

// apply performs the already-validated mutation copy-on-write.
func (d Delta) apply(g *graph.Graph) *graph.Graph {
	switch d.Op {
	case AddEdge:
		return g.WithEdge(d.U, d.V)
	case RemoveEdge:
		return g.WithoutEdge(d.U, d.V)
	case AddVertex:
		return g.WithVertex(d.U)
	default: // RemoveVertex
		return g.DropVertex(d.U)
	}
}

// Apply validates d against g and applies it copy-on-write, returning
// the post-graph and the sorted dirty set: every vertex within distance
// k of a touched endpoint in the pre- or the post-graph. Exactly the
// views of dirty vertices can differ between pre and post; g itself is
// never mutated. k < 1 is clamped to 1 (a delta always dirties at
// least its own endpoints' views).
func Apply(g *graph.Graph, d Delta, k int) (*graph.Graph, []graph.Vertex, error) {
	if err := d.check(g); err != nil {
		return nil, nil, err
	}
	post := d.apply(g)
	return post, DirtySet(g, post, []Delta{d}, k), nil
}

// ApplyAll applies deltas in order (each validated against the evolving
// graph) and returns the final graph plus the union dirty set relating
// the original g to the final graph. On error the original g, the dirty
// set so far, and the failing delta's index are recoverable from the
// wrapped error; the returned graph is nil.
func ApplyAll(g *graph.Graph, deltas []Delta, k int) (*graph.Graph, []graph.Vertex, error) {
	cur := g
	for i, d := range deltas {
		if err := d.check(cur); err != nil {
			return nil, nil, fmt.Errorf("churn: delta %d: %w", i, err)
		}
		cur = d.apply(cur)
	}
	return cur, DirtySet(g, cur, deltas, k), nil
}

// DirtySet returns the sorted set of vertices whose k-neighbourhood
// view can differ between pre and post, given that deltas is the op
// sequence relating them: the union over every touched endpoint of its
// distance-≤k ball in pre and in post. Endpoints absent from a graph
// contribute nothing on that side. The result is a superset of the true
// changed-view set and strictly local: |dirty| ≤ Σ |B_k(endpoints)|,
// independent of n.
func DirtySet(pre, post *graph.Graph, deltas []Delta, k int) []graph.Vertex {
	if k < 1 {
		k = 1
	}
	seen := make(map[graph.Vertex]struct{})
	for _, d := range deltas {
		for _, t := range d.touched() {
			for v := range pre.BFSBounded(t, k) {
				seen[v] = struct{}{}
			}
			for v := range post.BFSBounded(t, k) {
				seen[v] = struct{}{}
			}
			// A touched vertex absent from both graphs (added then
			// removed inside the batch) still had no view on either
			// side; nothing to record.
		}
	}
	dirty := make([]graph.Vertex, 0, len(seen))
	for v := range seen {
		dirty = append(dirty, v)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

// Diff returns a delta sequence transforming pre into post, in an order
// ApplyAll accepts: vertex additions, edge removals, edge additions,
// vertex removals. Both inputs are untouched. Diff(g, g) is empty.
func Diff(pre, post *graph.Graph) []Delta {
	var deltas []Delta
	post.EachVertex(func(v graph.Vertex) bool {
		if !pre.HasVertex(v) && post.Deg(v) == 0 {
			// Non-isolated new vertices are created implicitly by
			// their AddEdge deltas.
			deltas = append(deltas, Delta{Op: AddVertex, U: v})
		}
		return true
	})
	pe, qe := pre.Edges(), post.Edges()
	i, j := 0, 0
	var adds []Delta
	for i < len(pe) || j < len(qe) {
		switch {
		case j == len(qe) || (i < len(pe) && pe[i].Less(qe[j])):
			deltas = append(deltas, Delta{Op: RemoveEdge, U: pe[i].U, V: pe[i].V})
			i++
		case i == len(pe) || qe[j].Less(pe[i]):
			adds = append(adds, Delta{Op: AddEdge, U: qe[j].U, V: qe[j].V})
			j++
		default:
			i, j = i+1, j+1
		}
	}
	deltas = append(deltas, adds...)
	pre.EachVertex(func(v graph.Vertex) bool {
		if !post.HasVertex(v) {
			deltas = append(deltas, Delta{Op: RemoveVertex, U: v})
		}
		return true
	})
	return deltas
}

// Scheduler generates an endless valid delta sequence against an
// evolving graph: mostly edge flaps with occasional vertex arrivals and
// departures, deterministic in the seed. It is the shared source of
// churn schedules for loadgen's sustained-churn mode and klocalcheck's
// delta property.
type Scheduler struct {
	rng  *rand.Rand
	cur  *graph.Graph
	next graph.Vertex // smallest label never used, for fresh arrivals
}

// NewScheduler starts a schedule over g (g is never mutated; the
// scheduler tracks its own evolving copy).
func NewScheduler(g *graph.Graph, seed int64) *Scheduler {
	next := graph.Vertex(0)
	g.EachVertex(func(v graph.Vertex) bool {
		if v >= next {
			next = v + 1
		}
		return true
	})
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), cur: g, next: next}
}

// Graph returns the current evolved graph (immutable; safe to share).
func (s *Scheduler) Graph() *graph.Graph { return s.cur }

// Next returns one delta valid against the current graph and advances
// the schedule. The mix is ~45% edge adds, ~45% edge removals, ~5%
// vertex arrivals, ~5% vertex departures, with fallbacks when a kind is
// impossible (e.g. removing from an empty edge set). The graph is never
// churned below 2 vertices.
func (s *Scheduler) Next() Delta {
	d := s.pick()
	s.cur = d.apply(s.cur)
	return d
}

func (s *Scheduler) pick() Delta {
	g := s.cur
	roll := s.rng.Intn(100)
	switch {
	case roll < 45:
		if d, ok := s.randomNonEdge(); ok {
			return d
		}
		roll = 50 // dense graph: flap an existing edge instead
		fallthrough
	case roll < 90:
		if g.M() > 0 {
			e := g.Edges()[s.rng.Intn(g.M())]
			return Delta{Op: RemoveEdge, U: e.U, V: e.V}
		}
		fallthrough
	case roll < 95:
		d := Delta{Op: AddVertex, U: s.next}
		s.next++
		return d
	default:
		if vs := g.Vertices(); len(vs) > 2 {
			return Delta{Op: RemoveVertex, U: vs[s.rng.Intn(len(vs))]}
		}
		d := Delta{Op: AddVertex, U: s.next}
		s.next++
		return d
	}
}

// randomNonEdge samples a uniform vertex pair a few times looking for a
// non-edge; dense graphs make it fail, and the caller falls back.
func (s *Scheduler) randomNonEdge() (Delta, bool) {
	vs := s.cur.Vertices()
	if len(vs) < 2 {
		return Delta{}, false
	}
	for try := 0; try < 8; try++ {
		u := vs[s.rng.Intn(len(vs))]
		v := vs[s.rng.Intn(len(vs))]
		if u != v && !s.cur.HasEdge(u, v) {
			return Delta{Op: AddEdge, U: u, V: v}, true
		}
	}
	return Delta{}, false
}

// ScheduleDeltas returns a deterministic churn schedule of the given
// length over g — the pure form used by the klocalcheck delta property
// so a finding replays from (graph, seed, steps) alone.
func ScheduleDeltas(g *graph.Graph, seed int64, steps int) []Delta {
	s := NewScheduler(g, seed)
	out := make([]Delta, steps)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
