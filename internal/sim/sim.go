// Package sim walks messages through routing functions: it executes the
// sequence of forwarding decisions for a single message, fetching each
// hop's view G_k(u) from a preprocessor and handing it to the decision,
// detects livelock using the paper's own criteria, and computes route
// metrics (length, dilation).
package sim

import (
	"errors"
	"fmt"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

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

// Options select a walk's livelock detection (Observation 1): a
// deterministic decision at u depends only on (u, v) when
// predecessor-aware and only on u when oblivious, so a repeated
// directed edge, or node, repeats forever.
type Options struct {
	// DetectLoops enables decision-state repetition detection; it must
	// be off for randomized algorithms.
	DetectLoops bool
	// PredecessorAware selects the state space: directed edges for
	// predecessor-aware decisions, nodes for oblivious ones.
	PredecessorAware bool
}

// Walker is an algorithm bound over the preprocessor its walks fetch
// each hop's view from, with the loop detection the algorithm's flags
// call for: the one place a walk's options are derived. It is safe for
// concurrent use given one Scratch per goroutine.
type Walker struct {
	pre  *prep.Preprocessor
	f    route.Func
	opts Options
}

// Bind binds alg over a private preprocessor of st at locality k, built
// with the algorithm's Policy. It returns nil when alg cannot run on st.
func Bind(alg route.Algorithm, st bigraph.Store, k int) *Walker {
	return Over(alg, prep.NewPreprocessor(st, k, alg.Policy, prep.CacheOptions{}))
}

// Over binds alg over p, sharing p's view cache. It returns nil when
// alg cannot run on p's store (see route.Algorithm.Over).
func Over(alg route.Algorithm, p *prep.Preprocessor) *Walker {
	f := alg.Over(p)
	if f == nil {
		return nil
	}
	return &Walker{pre: p, f: f, opts: Options{DetectLoops: !alg.Randomized, PredecessorAware: alg.PredecessorAware}}
}

// dirEdge is the loop-detection state for predecessor-aware walks.
type dirEdge struct{ from, to graph.Vertex }

// Scratch is caller-owned working memory for RunScratch:
// the route buffer, the loop-detection sets (cleared, not reallocated,
// per run), the distance search's banks and the prep scratch each hop's
// view and decision run on, all grown to a high-water mark and then
// reused without allocating. The Result returned by the
// scratch-taking entry points is owned by the scratch — its Route
// aliases the internal buffer and the next run overwrites both; Clone it
// to retain it. Not safe for concurrent use; give each worker its own.
type Scratch struct {
	route     []graph.Vertex
	seenEdges map[dirEdge]bool
	seenNodes map[graph.Vertex]bool
	search    *graph.SearchScratch
	views     prep.Scratch
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

// distNetwork is a store that answers exact distances with
// caller-owned search scratch, as *graph.Graph does.
type distNetwork interface {
	DistScratch(u, v graph.Vertex, sc *graph.SearchScratch) int
}

// Run walks a message from s to t over p's store on a fresh scratch
// within the default step budget, with a decision that is no
// algorithm's (an adversary's transcript) and explicit options. Each
// hop fetches the current node's view from p and hands it to f.
// Result.Dist is dist(s, t) when the store can answer exact distances (a
// *graph.Graph); on other stores, too large to pay for global topology
// knowledge, it stays 0 ("unknown"), and consumers guard
// dilation-derived metrics with Dist > 0.
func Run(p *prep.Preprocessor, f route.Func, s, t graph.Vertex, opts Options) *Result {
	w := Walker{pre: p, f: f, opts: opts}
	return w.Run(s, t)
}

// Run walks one message from s to t on a fresh scratch within the
// default step budget.
func (w *Walker) Run(s, t graph.Vertex) *Result { return w.RunScratch(s, t, 0, NewScratch()) }

// RunScratch walks one message from s to t on sc within maxSteps hops
// (0: 4·n·deg, far above any deterministic non-looping walk, which
// Observation 1 bounds by 2·m). It allocates only into sc (plus the
// Result's error on failure paths, and the views a cache miss builds).
// The Result is owned by sc until its next run; Clone it to retain it.
//
//klocal:hotpath
func (w *Walker) RunScratch(s, t graph.Vertex, maxSteps int, sc *Scratch) *Result {
	res := w.walk(s, t, maxSteps, sc)
	if d, ok := w.pre.Store().(distNetwork); ok {
		res.Dist = d.DistScratch(s, t, sc.search)
	}
	return res
}

// Decide takes the one decision a walk takes at u with predecessor v,
// fetching u's view on sc: for callers that time single decisions.
func (w *Walker) Decide(s, t, u, v graph.Vertex, sc *prep.Scratch) (graph.Vertex, error) {
	return w.f(s, t, v, w.pre.At(u, sc), sc)
}

//klocal:hotpath
func (w *Walker) walk(s, t graph.Vertex, maxSteps int, sc *Scratch) *Result {
	res := &sc.res
	*res = Result{}
	sc.route = append(sc.route[:0], s)
	res.Route = sc.route
	if s == t {
		res.Outcome = Delivered
		return res
	}
	st := w.pre.Store()
	if maxSteps == 0 {
		maxSteps = 4 * (st.N() + 1) * (st.M() + 1)
		if maxSteps < 0 { // overflow on huge stores: effectively unbounded
			maxSteps = int(^uint(0) >> 1)
		}
	}
	if w.opts.DetectLoops {
		if w.opts.PredecessorAware {
			clear(sc.seenEdges)
		} else {
			clear(sc.seenNodes)
		}
	}

	u, v := s, graph.NoVertex
	for step := 0; step < maxSteps; step++ {
		next, err := w.f(s, t, v, w.pre.At(u, &sc.views), &sc.views)
		if err != nil {
			res.Outcome = Errored
			res.Err = err
			return res
		}
		if !st.HasEdge(u, next) {
			res.Outcome = Errored
			//klocal:allow cold error path: an illegal hop aborts the walk
			res.Err = fmt.Errorf("%w: %d -> %d", ErrIllegalHop, u, next)
			return res
		}
		if w.opts.DetectLoops {
			if w.opts.PredecessorAware {
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
