// Package route implements the paper's k-local routing algorithms:
// Algorithm 1 (origin-aware, predecessor-aware, k ≥ n/4), Algorithm 1B
// (Appendix A refinement with dilation ≤ 6), Algorithm 2
// (origin-oblivious, predecessor-aware, k ≥ n/3) and Algorithm 3
// (origin- and predecessor-oblivious, k ≥ ⌊n/2⌋), plus the baselines used
// by the experiments. See doc.go for how the figure-only forwarding rules
// were reconstructed.
package route

import (
	"errors"
	"fmt"
	"sync"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// Func is the paper's routing function f(s, t, u, v, G_k(u)): given the
// origin s, destination t, current node u and predecessor v (graph.NoVertex
// before the first hop), it returns the neighbour of u to forward to. The
// k-neighbourhood is implicit: a Func is bound to a fixed network and
// locality by Algorithm.Over (or Bind) and consults only the local view
// of u.
//
// Origin-oblivious algorithms ignore s; predecessor-oblivious algorithms
// ignore v.
type Func func(s, t, u, v graph.Vertex) (graph.Vertex, error)

// Algorithm describes a routing algorithm and binds it to networks.
type Algorithm struct {
	// Name identifies the algorithm in experiment output.
	Name string
	// OriginAware reports whether the routing function reads s.
	OriginAware bool
	// PredecessorAware reports whether the routing function reads v.
	PredecessorAware bool
	// Randomized reports that forwarding decisions are not a
	// deterministic function of the state, so walk-state repetition does
	// not imply livelock.
	Randomized bool
	// MinK returns the locality threshold T(n) above which the algorithm
	// guarantees delivery on every connected graph with n nodes, or 0 if
	// the algorithm makes no such guarantee (baselines).
	MinK func(n int) int
	// Policy is the dormant-edge policy the algorithm preprocesses with;
	// zero for algorithms that need no preprocessing (Algorithm 3 and the
	// baselines).
	Policy prep.Policy
	// Over binds the routing function over a preprocessor, which carries
	// the network (p.Store()), the locality (p.K()) and the view cache
	// (p.At, built for Policy). The traffic engine hands every message
	// of a snapshot the same preprocessor, so they share one sharded
	// cache. Over returns nil when the algorithm cannot run on
	// p.Store(): the baselines that need full topology knowledge (the
	// oracle) bind only to a materialized *graph.Graph, which a k-local
	// store deliberately cannot provide.
	Over func(p *prep.Preprocessor) Func
}

// Bind fixes the network and locality, returning the routing function
// over a private preprocessor built with the algorithm's Policy (nil
// when Over rejects the store). Each call builds its own view cache;
// bind through Over to share one.
func (a Algorithm) Bind(st bigraph.Store, k int) Func {
	return a.Over(prep.NewPreprocessor(st, k, a.Policy, prep.CacheOptions{}))
}

// Errors reported by routing functions. A routing error means the
// algorithm's preconditions do not hold (typically k below threshold);
// the simulator records it as a delivery failure.
var (
	// ErrLocalityTooSmall means the local structure violated the
	// algorithm's invariants (e.g. more active components than the rules
	// cover), which can only happen below the locality threshold.
	ErrLocalityTooSmall = errors.New("route: locality parameter too small for this algorithm")
	// ErrNoRoute means no admissible forwarding decision exists (e.g. the
	// destination is unreachable or outside every component).
	ErrNoRoute = errors.New("route: no admissible forwarding decision")
)

// MinK1 is Theorem 5's threshold for Algorithms 1 and 1B: the least
// integer k with k ≥ n/4.
func MinK1(n int) int { return (n + 3) / 4 }

// MinK2 is Theorem 7's threshold for Algorithm 2: the least integer k
// with k ≥ n/3.
func MinK2(n int) int { return (n + 2) / 3 }

// MinK3 is Theorem 8's threshold for Algorithm 3: ⌊n/2⌋.
func MinK3(n int) int { return n / 2 }

// ruleKind selects which of the paper's rule families applies at the
// current node (Cases 2, 3 and 4 of Algorithm 1).
type ruleKind int

const (
	rulesS  ruleKind = iota + 1 // Case 2: u is the origin (Figure 10)
	rulesU                      // Case 3: s absent or in an active component (Figure 11)
	rulesUS                     // Case 4: s in a passive component (Figure 12)
)

// arrival describes where the message came from, resolved against the
// local component structure.
type arrival int

const (
	arrivalFirst    arrival = iota + 1 // v = ⊥ (the origin's first send)
	arrivalActive                      // v is an active neighbour (roots[activeIdx])
	arrivalSPassive                    // v lies in the passive component containing s
	arrivalPassive                     // v lies in some other passive component
)

// decideActive applies the S/U/US rule tables to pick the next active
// neighbour. roots is the rank-ordered list of active neighbours;
// activeIdx identifies the arrival root when from == arrivalActive.
//
// The tables (reconstructed from Figures 10–12; see doc.go):
//
//	U:  d=1: always a1 (reversing if the message came from a1);
//	    d=2: a1↔a2; d=3: a1→a2→a3→a1; from a passive component: a1.
//	S:  first send: a1; d=1: a1→a1;
//	    d=2: a1→a2, a2→a2 (reversal); d=3: a1→a2→a3, a3→a3 (reversal).
//	US: from the passive component containing s: a1; active arrivals as S.
func decideActive(kind ruleKind, roots []graph.Vertex, from arrival, activeIdx int) (graph.Vertex, error) {
	d := len(roots)
	if d == 0 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: no active components", ErrNoRoute)
	}
	if d > 3 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: active degree %d > 3", ErrLocalityTooSmall, d)
	}
	if from != arrivalActive {
		// First send, passive arrivals, and the s-passive arrival all
		// enter at the lowest-rank active neighbour.
		return roots[0], nil
	}
	switch kind {
	case rulesU:
		// Pure circular permutation by rank (a1 a2 ... ad); with d = 1
		// this degenerates to the U1 reversal.
		return roots[(activeIdx+1)%d], nil
	case rulesS, rulesUS:
		// Circular by rank, except the highest-rank arrival reverses
		// (Rules S1/US1 for d = 1; S2/US2 for d = 2; S3/US3 for d = 3).
		if activeIdx == d-1 {
			return roots[d-1], nil
		}
		return roots[activeIdx+1], nil
	default:
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: unknown rule kind", ErrNoRoute)
	}
}

// classifyArrival resolves the predecessor v against the view's routing
// half: two binary searches and array loads, no component scans.
//
//klocal:hotpath
func classifyArrival(h *prep.RoutingHalf, s, v graph.Vertex, originAware bool) (arrival, int) {
	if v == graph.NoVertex {
		return arrivalFirst, -1
	}
	for i, r := range h.ActiveRoots {
		if r == v {
			return arrivalActive, i
		}
	}
	if originAware {
		if vi, ok := h.Routing.Index(v); ok {
			if ci := h.CompIdxOf(vi); ci >= 0 && !h.Comps[ci].Active {
				if si, ok := h.Routing.Index(s); ok && h.CompIdxOf(si) == ci {
					return arrivalSPassive, -1
				}
			}
		}
	}
	return arrivalPassive, -1
}

// kindAt resolves which rule family applies at u for origin s.
//
//klocal:hotpath
func kindAt(h *prep.RoutingHalf, s, u graph.Vertex) ruleKind {
	if u == s {
		return rulesS
	}
	if si, ok := h.Routing.Index(s); ok {
		if ci := h.CompIdxOf(si); ci >= 0 && !h.Comps[ci].Active {
			return rulesUS
		}
	}
	return rulesU
}

// caseOneHop returns the Case 1 forwarding decision (t visible in the raw
// k-neighbourhood: follow a shortest path) or NoVertex if Case 1 does not
// apply. The routing function always evaluates at the view's centre, so
// the precomputed next-hop table answers in one binary search — this
// deletes the per-hop BFS that dominated the old profile. It reads the
// view's Case-1 half only; the other cases read view.RoutingHalf().
//
//klocal:hotpath
func caseOneHop(view *prep.View, t graph.Vertex) graph.Vertex {
	return view.C.NextHopFromCenter(t)
}

// refineU2 is the Algorithm 1B hook: called in Case 3 with active degree
// 2 on an arrival from an active root, it may override the default U2
// decision with a pre-emptive reversal (Rules U2b–U2f). Returning
// NoVertex keeps the default.
type refineU2 func(h *prep.RoutingHalf, s, t, u, v graph.Vertex, roots []graph.Vertex, activeIdx int) graph.Vertex

// stepAware is the shared body of Algorithms 1 and 1B.
//
//klocal:hotpath
func stepAware(p *prep.Preprocessor, s, t, u, v graph.Vertex, refine refineU2) (graph.Vertex, error) {
	view := p.At(u)
	if hop := caseOneHop(view, t); hop != graph.NoVertex {
		return hop, nil
	}
	h := view.RoutingHalf()
	kind := kindAt(h, s, u)
	from, idx := classifyArrival(h, s, v, true)
	if kind == rulesU && from == arrivalActive && len(h.ActiveRoots) == 2 && refine != nil {
		if hop := refine(h, s, t, u, v, h.ActiveRoots, idx); hop != graph.NoVertex {
			return hop, nil
		}
	}
	return decideActive(kind, h.ActiveRoots, from, idx)
}

// Algorithm1 returns the paper's Algorithm 1: the (n/4)-local,
// origin-aware, predecessor-aware routing algorithm of Theorem 5
// (guaranteed delivery for k ≥ n/4, dilation < 7).
func Algorithm1() Algorithm {
	return Algorithm1Policy(prep.PolicyMinRank)
}

// Algorithm1Policy is Algorithm 1 under an explicit dormant-edge policy —
// the ablation hook Section 6.1 suggests for exploring dilation below 6.
func Algorithm1Policy(pol prep.Policy) Algorithm {
	name := "Algorithm1"
	if pol != prep.PolicyMinRank {
		name += "[" + pol.String() + "]"
	}
	return Algorithm{
		Name:             name,
		OriginAware:      true,
		PredecessorAware: true,
		MinK:             MinK1,
		Policy:           pol,
		Over: func(p *prep.Preprocessor) Func {
			return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
				return stepAware(p, s, t, u, v, nil)
			}
		},
	}
}

// Algorithm2 returns the paper's Algorithm 2: the (n/3)-local,
// origin-oblivious, predecessor-aware routing algorithm of Theorem 7
// (guaranteed delivery for k ≥ n/3, dilation < 3, optimal by Theorem 4).
func Algorithm2() Algorithm {
	return Algorithm2Policy(prep.PolicyMinRank)
}

// Algorithm2Policy is Algorithm 2 under an explicit dormant-edge policy.
func Algorithm2Policy(pol prep.Policy) Algorithm {
	name := "Algorithm2"
	if pol != prep.PolicyMinRank {
		name += "[" + pol.String() + "]"
	}
	return Algorithm{
		Name:             name,
		OriginAware:      false,
		PredecessorAware: true,
		MinK:             MinK2,
		Policy:           pol,
		Over: func(p *prep.Preprocessor) Func {
			return func(_, t, u, v graph.Vertex) (graph.Vertex, error) {
				view := p.At(u)
				if hop := caseOneHop(view, t); hop != graph.NoVertex {
					return hop, nil
				}
				h := view.RoutingHalf()
				roots := h.ActiveRoots
				if len(roots) > 2 {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("%w: active degree %d > 2", ErrLocalityTooSmall, len(roots))
				}
				from, idx := classifyArrival(h, graph.NoVertex, v, false)
				return decideActive(rulesU, roots, from, idx)
			}
		},
	}
}

// Algorithm3 returns the paper's Algorithm 3: the ⌊n/2⌋-local,
// origin-oblivious, predecessor-oblivious routing algorithm of Theorem 8.
// It needs no preprocessing and always follows a shortest path: if t is
// not visible, u has exactly one constrained active component
// (Lemma 12) and the message moves toward its furthest constraint vertex.
func Algorithm3() Algorithm {
	return Algorithm{
		Name:             "Algorithm3",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             MinK3,
		Over: func(p *prep.Preprocessor) Func {
			st, k := p.Store(), p.K()
			return func(_, t, u, _ graph.Vertex) (graph.Vertex, error) {
				sc := alg3Scratch.Get().(*nbhd.Scratch)
				defer alg3Scratch.Put(sc)
				if !sc.Extract(st, u, k) {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("%w: current node outside network", ErrNoRoute)
				}
				return alg3StepCompact(sc, t)
			}
		},
	}
}

// alg3Scratch pools the compact extraction scratch across Algorithm 3
// steps (Algorithm 3 has no preprocessor, so its per-hop extraction
// cannot be cached — but its working memory can).
var alg3Scratch = sync.Pool{New: func() any { return nbhd.NewScratch() }}

// alg3StepCompact is Algorithm 3's forwarding decision over the compact
// view already extracted into sc: shortest path when t is visible,
// otherwise the Lemma 12 move toward the furthest constraint vertex of
// the unique constrained active component. Walk-identical to alg3StepRef
// (pinned by TestCompactStepMatchesRef and the fuzz "compact" property).
//
//klocal:hotpath
func alg3StepCompact(sc *nbhd.Scratch, t graph.Vertex) (graph.Vertex, error) {
	cv := &sc.View
	if ti, ok := cv.Index(t); ok {
		hop := sc.NextHopToward(cv.CenterIdx, ti)
		if hop < 0 {
			//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
			return graph.NoVertex, fmt.Errorf("%w: t unreachable in view", ErrNoRoute)
		}
		return cv.Verts[hop], nil
	}
	sc.Classify()
	var constrained *nbhd.CompactComponent
	active := 0
	for i := range sc.Comps {
		c := &sc.Comps[i]
		if !c.Active {
			continue
		}
		active++
		if c.Constrained {
			constrained = c
		}
	}
	if active != 1 || constrained == nil {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: Lemma 12 precondition violated (%d active components)", ErrLocalityTooSmall, active)
	}
	// The furthest constraint vertex; ties broken by rank (Constraints
	// is label-sorted, so the first maximum is canonical).
	target := int32(-1)
	best := int32(-1)
	for _, w := range constrained.Constraints {
		if d := cv.Dist[w]; d > best {
			best = d
			target = w
		}
	}
	hop := sc.NextHopToward(cv.CenterIdx, target)
	if hop < 0 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: constraint vertex unreachable", ErrNoRoute)
	}
	return cv.Verts[hop], nil
}
