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

	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// Func is the paper's routing function f(s, t, u, v, G_k(u)). Given the
// origin s, the destination t, the predecessor v (graph.NoVertex before
// the first hop) and the walker's view of the current node u — u is
// view.Center and G_k(u) is view.C.Raw — it returns the neighbour of u
// to forward to. The walker fetches the view once per hop
// (prep.Preprocessor.At) on its scratch sc and hands both over; a
// decision builds the view's routing half and runs Algorithm 1B's
// bounce simulation on sc, and touches sc only through prep and nbhd.
//
// Origin-oblivious algorithms ignore s; predecessor-oblivious algorithms
// ignore v.
type Func func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error)

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
	// zero, which classifies no edge dormant, for the algorithms that
	// remove none (Algorithm 3 and the baselines).
	Policy prep.Policy
	// Over binds the routing function over the preprocessor whose views
	// (built for Policy) the walker will hand it. The paper's algorithms
	// read nothing but their arguments and return a fixed Func. The
	// baselines that need more bind it here: the right-hand rule and the
	// random walk their ports at k < 1, the oracle the whole graph. Over
	// returns nil when the algorithm cannot run on p.Store(): the oracle
	// binds only to a materialized *graph.Graph, which a k-local store
	// deliberately cannot provide.
	Over func(p *prep.Preprocessor) Func
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

// refineU2 is the Algorithm 1B hook: called in Case 3 with active degree
// 2 on an arrival from an active root, it may override the default U2
// decision with a pre-emptive reversal (Rules U2b–U2f). Returning
// NoVertex keeps the default.
type refineU2 func(h *prep.RoutingHalf, s, t, u, v graph.Vertex, roots []graph.Vertex, activeIdx int, sc *prep.Scratch) graph.Vertex

// stepAware is the shared body of Algorithms 1 and 1B.
//
//klocal:hotpath
func stepAware(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch, refine refineU2) (graph.Vertex, error) {
	// Case 1: t lies inside G_k(u), so follow a shortest path.
	if hop := view.C.NextHopFromCenter(t); hop != graph.NoVertex {
		return hop, nil
	}
	u := view.Center
	h := view.RoutingHalfScratch(sc)
	kind := kindAt(h, s, u)
	from, idx := classifyArrival(h, s, v, true)
	if kind == rulesU && from == arrivalActive && len(h.ActiveRoots) == 2 && refine != nil {
		if hop := refine(h, s, t, u, v, h.ActiveRoots, idx, sc); hop != graph.NoVertex {
			return hop, nil
		}
	}
	return decideActive(kind, h.ActiveRoots, from, idx)
}

// algorithm1 is Algorithm 1's decision.
func algorithm1(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	return stepAware(s, t, v, view, sc, nil)
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
		Over:             func(*prep.Preprocessor) Func { return algorithm1 },
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
		Over:             func(*prep.Preprocessor) Func { return algorithm2 },
	}
}

// algorithm2 is Algorithm 2's decision.
//
//klocal:hotpath
func algorithm2(_, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	if hop := view.C.NextHopFromCenter(t); hop != graph.NoVertex {
		return hop, nil
	}
	h := view.RoutingHalfScratch(sc)
	roots := h.ActiveRoots
	if len(roots) > 2 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: active degree %d > 2", ErrLocalityTooSmall, len(roots))
	}
	from, idx := classifyArrival(h, graph.NoVertex, v, false)
	return decideActive(rulesU, roots, from, idx)
}

// Algorithm3 returns the paper's Algorithm 3: the ⌊n/2⌋-local,
// origin-oblivious, predecessor-oblivious routing algorithm of Theorem 8.
// It removes no edges (its Policy is zero, so a view's routing half is
// G_k(u) itself, classified) and always follows a shortest path: if t
// is not visible, u has exactly one constrained active component
// (Lemma 12) and the message moves toward its furthest constraint
// vertex. Walk-identical to Algorithm3Ref (TestCompactStepMatchesRef
// and the klocalcheck "compact" property).
func Algorithm3() Algorithm {
	return Algorithm{
		Name:             "Algorithm3",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             MinK3,
		Over:             func(*prep.Preprocessor) Func { return algorithm3 },
	}
}

// algorithm3 is Algorithm 3's forwarding decision at the centre of view:
// shortest path when t is visible, otherwise the Lemma 12 move toward
// the furthest constraint vertex of the unique constrained active
// component of G_k(u).
//
//klocal:hotpath
func algorithm3(_, t, _ graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	raw := view.C.Raw
	if raw.NV() == 0 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: current node outside network", ErrNoRoute)
	}
	if ti, ok := raw.Index(t); ok {
		hop := view.C.NextHop[ti]
		if hop == graph.NoVertex {
			//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
			return graph.NoVertex, fmt.Errorf("%w: t unreachable in view", ErrNoRoute)
		}
		return hop, nil
	}
	h := view.RoutingHalfScratch(sc)
	var constrained *nbhd.CompactComponent
	active := 0
	for i := range h.Comps {
		c := &h.Comps[i]
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
	// is label-sorted and non-empty, so the first maximum is canonical).
	target := constrained.Constraints[0]
	for _, w := range constrained.Constraints {
		if h.Routing.Dist[w] > h.Routing.Dist[target] {
			target = w
		}
	}
	hop := view.C.NextHopFromCenter(h.Routing.Verts[target])
	if hop == graph.NoVertex {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: constraint vertex unreachable", ErrNoRoute)
	}
	return hop, nil
}
