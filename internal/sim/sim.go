// Package sim drives routing functions over networks: it executes the
// sequence of forwarding decisions for a single message, detects
// livelock using the paper's own criteria, and computes route metrics
// (length, dilation).
package sim

import (
	"errors"
	"fmt"

	"klocal/internal/graph"
)

// Func is the routing-function signature sim drives; it is structurally
// identical to route.Func, kept separate so sim stays independent of the
// algorithm implementations.
type Func func(s, t, u, v graph.Vertex) (graph.Vertex, error)

// Outcome classifies the end of a simulated route.
type Outcome int

const (
	// Delivered means the message reached the destination.
	Delivered Outcome = iota + 1
	// Looped means the routing function revisited a decision state, so
	// the deterministic walk can never terminate (Observation 1).
	Looped
	// Errored means the routing function returned an error or an illegal
	// hop (a non-neighbour).
	Errored
	// Exhausted means the step budget ran out before any of the above
	// (only possible for randomized algorithms, whose walks have no
	// repeating-state guarantee).
	Exhausted
)

// String renders the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case Errored:
		return "errored"
	case Exhausted:
		return "exhausted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result describes a simulated route.
type Result struct {
	Outcome Outcome
	// Route is the walk, starting at s; for Delivered it ends at t.
	Route []graph.Vertex
	// Err carries the routing function's error when Outcome == Errored.
	Err error
	// Dist is dist(s, t) in the network.
	Dist int
}

// Len returns the route length in edges.
func (r *Result) Len() int {
	if len(r.Route) == 0 {
		return 0
	}
	return len(r.Route) - 1
}

// Clone returns an independent deep copy (Route included). Use it to
// retain a scratch-owned Result past the next RunScratch on the same
// scratch.
func (r *Result) Clone() *Result {
	cp := *r
	cp.Route = append([]graph.Vertex(nil), r.Route...)
	return &cp
}

// Dilation returns Len()/Dist. It returns 0 for s == t and +Inf-like
// MaxDilation for undelivered messages.
func (r *Result) Dilation() float64 {
	if r.Dist == 0 {
		return 0
	}
	if r.Outcome != Delivered {
		return MaxDilation
	}
	return float64(r.Len()) / float64(r.Dist)
}

// MaxDilation is the sentinel dilation of an undelivered message.
const MaxDilation = 1e18

// ErrIllegalHop is wrapped into Result.Err when a routing function
// forwards to a non-neighbour.
var ErrIllegalHop = errors.New("sim: routing function returned a non-neighbour")

// Options tune a simulation run.
type Options struct {
	// MaxSteps bounds the walk; 0 means the default 4·n·deg budget (far
	// above any deterministic non-looping walk, which Observation 1
	// bounds by 2·m).
	MaxSteps int
	// DetectLoops enables decision-state repetition detection. It must
	// be disabled for randomized algorithms. Default on (see Run).
	DetectLoops bool
	// PredecessorAware selects the loop-detection state space: directed
	// edges for predecessor-aware functions, nodes for oblivious ones.
	PredecessorAware bool
}

// Network is the minimal topology surface the simulator needs: sizes for
// the default step budget and edge membership for hop legality. Both
// *graph.Graph and the bigraph stores satisfy it.
type Network interface {
	N() int
	M() int
	HasEdge(u, v graph.Vertex) bool
}

// dirEdge is the loop-detection state for predecessor-aware walks.
type dirEdge struct{ from, to graph.Vertex }

// Scratch is caller-owned working memory for RunScratch:
// the route buffer, the loop-detection sets (cleared, not reallocated,
// per run) and the distance search's banks, all grown to a high-water
// mark and then reused without allocating. The Result returned by the
// scratch-taking entry points is owned by the scratch — its Route
// aliases the internal buffer and the next run overwrites both; Clone it
// to retain it. Not safe for concurrent use; give each worker its own.
type Scratch struct {
	route     []graph.Vertex
	seenEdges map[dirEdge]bool
	seenNodes map[graph.Vertex]bool
	search    *graph.SearchScratch
	res       Result
}

// NewScratch returns a ready scratch; the first run sizes it.
func NewScratch() *Scratch {
	return &Scratch{
		seenEdges: make(map[dirEdge]bool),
		seenNodes: make(map[graph.Vertex]bool),
		search:    graph.NewSearchScratch(),
	}
}

// distNetwork is a Network that answers exact distances with
// caller-owned search scratch, as *graph.Graph does.
type distNetwork interface {
	DistScratch(u, v graph.Vertex, sc *graph.SearchScratch) int
}

// Run simulates routing a message from s to t on net with the bound
// routing function f. The predecessor-awareness of the algorithm
// determines the livelock criterion:
//
//   - predecessor-aware: the decision at u depends only on (u, v) (plus
//     the fixed s, t), so revisiting a directed edge repeats forever;
//   - predecessor-oblivious: the decision depends only on u, so
//     revisiting any node repeats forever.
//
// Result.Dist is dist(s, t) when net can answer exact distances (a
// *graph.Graph); on other stores, too large to pay for global topology
// knowledge, it stays 0 ("unknown"), and consumers guard
// dilation-derived metrics with Dist > 0.
func Run(net Network, f Func, s, t graph.Vertex, opts Options) *Result {
	return RunScratch(net, f, s, t, opts, NewScratch())
}

// RunScratch is Run allocating only into sc (plus the Result's error on
// failure paths). The returned Result is owned by sc: it is valid until
// the next run with the same scratch; Clone it to retain it.
func RunScratch(net Network, f Func, s, t graph.Vertex, opts Options, sc *Scratch) *Result {
	res := run(net, f, s, t, opts, sc)
	if d, ok := net.(distNetwork); ok {
		res.Dist = d.DistScratch(s, t, sc.search)
	}
	return res
}

//klocal:hotpath
func run(g Network, f Func, s, t graph.Vertex, opts Options, sc *Scratch) *Result {
	res := &sc.res
	*res = Result{}
	sc.route = append(sc.route[:0], s)
	res.Route = sc.route
	if s == t {
		res.Outcome = Delivered
		return res
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 4 * (g.N() + 1) * (g.M() + 1)
		if maxSteps < 0 { // overflow on huge stores: effectively unbounded
			maxSteps = int(^uint(0) >> 1)
		}
	}
	if opts.DetectLoops {
		if opts.PredecessorAware {
			clear(sc.seenEdges)
		} else {
			clear(sc.seenNodes)
		}
	}

	u, v := s, graph.NoVertex
	for step := 0; step < maxSteps; step++ {
		next, err := f(s, t, u, v)
		if err != nil {
			res.Outcome = Errored
			res.Err = err
			return res
		}
		if !g.HasEdge(u, next) {
			res.Outcome = Errored
			//klocal:allow cold error path: an illegal hop aborts the walk
			res.Err = fmt.Errorf("%w: %d -> %d", ErrIllegalHop, u, next)
			return res
		}
		if opts.DetectLoops {
			if opts.PredecessorAware {
				e := dirEdge{from: u, to: next}
				if sc.seenEdges[e] {
					res.Outcome = Looped
					return res
				}
				sc.seenEdges[e] = true
			} else {
				if sc.seenNodes[u] {
					res.Outcome = Looped
					return res
				}
				sc.seenNodes[u] = true
			}
		}
		sc.route = append(sc.route, next)
		res.Route = sc.route
		u, v = next, u
		if u == t {
			res.Outcome = Delivered
			return res
		}
	}
	res.Outcome = Exhausted
	return res
}
