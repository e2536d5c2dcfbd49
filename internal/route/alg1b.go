package route

import (
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// sortVerts sorts a small vertex slice in place. Insertion sort, not
// sort.Slice: the comparator closure and interface boxing would
// allocate on every simulation step, and these slices hold at most a
// handful of branch roots. (Used by the reference path; the compact
// simulation emits roots already sorted.)
func sortVerts(vs []graph.Vertex) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// Algorithm1B returns the Appendix A refinement of Algorithm 1
// (Theorem 6): identical except that Rule U2 pre-emptively applies an
// imminent S2/US2 reversal (Rules U2b–U2f), reducing the dilation bound
// from 7 to 6. See doc.go for how the pre-emption test is realized.
func Algorithm1B() Algorithm {
	return Algorithm1BPolicy(prep.PolicyMinRank)
}

// Algorithm1BPolicy is Algorithm 1B under an explicit dormant-edge policy
// (the Section 6.1 ablation).
func Algorithm1BPolicy(pol prep.Policy) Algorithm {
	name := "Algorithm1B"
	if pol != prep.PolicyMinRank {
		name += "[" + pol.String() + "]"
	}
	return Algorithm{
		Name:             name,
		OriginAware:      true,
		PredecessorAware: true,
		MinK:             MinK1,
		Policy:           pol,
		Over:             func(*prep.Preprocessor) Func { return algorithm1B },
	}
}

// algorithm1B is Algorithm 1B's decision.
func algorithm1B(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	return stepAware(s, t, v, view, sc, anticipateU2)
}

// anticipateU2 implements Rules U2b–U2f. Called at u in Case 3 with
// active degree 2, message received from an active root: if u can prove
// locally that forwarding into the component containing the origin would
// send the message down a forced path that Rule S2 (at s) or Rule US2 (at
// the vertex carrying s's passive branch) immediately bounces back to u,
// the reversal is applied at u instead. Returns NoVertex to keep the
// plain U2 decision. Walk-identical to anticipateU2Ref (pinned by
// TestCompactStepMatchesRef).
//
//klocal:hotpath
func anticipateU2(h *prep.RoutingHalf, s, _, u, v graph.Vertex, roots []graph.Vertex, activeIdx int, sc *prep.Scratch) graph.Vertex {
	// Case U2a: the origin is not on u's routing horizon chart, or sits
	// exactly at the horizon — no anticipation is possible.
	rcv := h.Routing
	sLi, ok := rcv.Index(s)
	if !ok || rcv.Dist[sLi] >= rcv.K || s == u {
		return graph.NoVertex
	}
	tLi, ok := rcv.Index(roots[1-activeIdx])
	if !ok {
		return graph.NoVertex
	}
	ci := h.CompIdxOf(tLi)
	if ci < 0 || ci != h.CompIdxOf(sLi) {
		// The message is moving away from the origin; S2/US2 cannot be
		// imminent on this side.
		return graph.NoVertex
	}
	if simulatesBounce(rcv, sLi, tLi, sc.Bounce()) {
		return v
	}
	return graph.NoVertex
}

// simulatesBounce walks the anticipated trajectory inside u's routing
// view rcv, starting with the hop u→first (all positions are local indices
// into rcv; index order is label order, so every rank
// comparison below matches the reference). It follows only forced U2
// steps (exactly two active branches) and reports whether the walk
// provably terminates in an S2/US2 reversal back along its own
// footsteps; any unprovable or diverging situation aborts with false,
// leaving Rule U2 unchanged (Rules U2b/U2d/U2f). The branch banks are
// the walker's (bs, from its prep.Scratch), so the decision path stays
// stateless.
//
// Branch activity is judged from u's chart: a branch is active for the
// simulated node if it reaches u's knowledge horizon or has visible depth
// at least k. The horizon case is the paper's constraint-vertex chain in
// operational form: on a forced path, depth accumulates hop by hop, so a
// horizon-reaching branch extends at least k from every chain vertex.
//
//klocal:hotpath
func simulatesBounce(rcv *nbhd.CompactView, sLi, firstLi int32, bs *nbhd.BounceScratch) bool {
	prev, cur := rcv.CenterIdx, firstLi
	for step := int32(0); step < 4*rcv.K+4; step++ {
		if rcv.Dist[cur] >= rcv.K {
			return false // cannot see past the horizon
		}
		actRoots, sPassive := bs.Branches(rcv, cur, sLi)
		if cur == sLi || sPassive {
			// Terminal: Rule S2 (cur == s) or US2 (s hangs in a passive
			// branch of cur) is anticipated. Either bounces exactly when
			// the arrival is the higher-rank of two active roots.
			if len(actRoots) != 2 {
				return false
			}
			return prev == actRoots[1]
		}
		if len(actRoots) != 2 {
			return false // the trajectory is not a forced U2 chain
		}
		var next int32
		switch prev {
		case actRoots[0]:
			next = actRoots[1]
		case actRoots[1]:
			next = actRoots[0]
		default:
			return false
		}
		prev, cur = cur, next
	}
	return false
}
