package nbhd

// BounceScratch is caller-owned working memory for the branch
// classification inside Algorithm 1B's bounce simulation: epoch-marked
// distance and branch-label banks over a routing view's local index
// space, grown to a high-water mark and then reused without allocating.
// It lives here rather than in the route package so the routing decision
// path itself stays stateless — the scratch is substrate working memory
// that the walker owns (inside its prep.Scratch) and hands to each
// decision, never bind-time state. Not safe for concurrent use; give
// each walker its own.
type BounceScratch struct {
	epoch    uint32
	dmark    []uint32 // distCur[i] valid iff dmark[i] == epoch
	distCur  []int32  // BFS distance from the simulated node
	bmark    []uint32 // branch[i] valid iff bmark[i] == epoch
	branch   []int32  // branch id of i in the view minus the simulated node
	queue    []int32
	brActive []bool // per branch id
	brHasS   []bool
	actRoots []int32
}

// begin sizes the banks for a view of nv vertices and opens a new epoch.
//
//klocal:hotpath
func (sc *BounceScratch) begin(nv int) {
	if cap(sc.dmark) < nv {
		//klocal:allow grows once to the largest view seen, then reused; steady state pinned by the route allocs gate
		sc.dmark = make([]uint32, nv)
		//klocal:allow same growth-once path as dmark above
		sc.distCur = make([]int32, nv)
		//klocal:allow same growth-once path as dmark above
		sc.bmark = make([]uint32, nv)
		//klocal:allow same growth-once path as dmark above
		sc.branch = make([]int32, nv)
		sc.epoch = 0
	}
	sc.dmark = sc.dmark[:nv]
	sc.distCur = sc.distCur[:nv]
	sc.bmark = sc.bmark[:nv]
	sc.branch = sc.branch[:nv]
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: stale marks could alias the new epoch
		clear(sc.dmark)
		clear(sc.bmark)
		sc.epoch = 1
	}
}

// Branches classifies the branches around cur — the connected components
// of rcv minus cur that are adjacent to cur — and returns the roots of
// the active ones (ascending, so rank-ordered) plus whether s hangs in a
// passive one. A branch is active when it touches the view horizon
// (Dist == K), extends at least K from cur, or holds the view centre.
// Two epoch-marked BFS passes over the compact rows; the returned slice
// is owned by the scratch and valid until the next call.
//
//klocal:hotpath
func (sc *BounceScratch) Branches(rcv *CompactView, cur, sLi int32) ([]int32, bool) {
	sc.begin(rcv.NV())

	// Pass 1: BFS distances from cur through the full view. A shortest
	// path from cur never revisits cur, so within every branch these
	// equal a BFS over the unmodified view.
	sc.queue = sc.queue[:0]
	sc.dmark[cur] = sc.epoch
	sc.distCur[cur] = 0
	sc.queue = append(sc.queue, cur)
	for h := 0; h < len(sc.queue); h++ {
		x := sc.queue[h]
		dx := sc.distCur[x]
		for _, y := range rcv.Row(x) {
			if sc.dmark[y] == sc.epoch {
				continue
			}
			sc.dmark[y] = sc.epoch
			sc.distCur[y] = dx + 1
			sc.queue = append(sc.queue, y)
		}
	}

	// Pass 2: label the branches reachable from cur's neighbours with
	// cur removed, folding the activity and origin flags into per-branch
	// accumulators as each vertex is first visited.
	sc.brActive = sc.brActive[:0]
	sc.brHasS = sc.brHasS[:0]
	for _, w := range rcv.Row(cur) {
		if sc.bmark[w] == sc.epoch {
			continue // second root of an already-labelled branch
		}
		bid := int32(len(sc.brActive))
		sc.brActive = append(sc.brActive, false)
		sc.brHasS = append(sc.brHasS, false)
		sc.queue = sc.queue[:0]
		sc.bmark[w] = sc.epoch
		sc.branch[w] = bid
		sc.queue = append(sc.queue, w)
		for h := 0; h < len(sc.queue); h++ {
			x := sc.queue[h]
			if x == sLi {
				sc.brHasS[bid] = true
			}
			if rcv.Dist[x] == rcv.K || sc.distCur[x] >= rcv.K || x == rcv.CenterIdx {
				sc.brActive[bid] = true
			}
			for _, y := range rcv.Row(x) {
				if y == cur || sc.bmark[y] == sc.epoch {
					continue
				}
				sc.bmark[y] = sc.epoch
				sc.branch[y] = bid
				sc.queue = append(sc.queue, y)
			}
		}
	}

	// cur's row is ascending and local index order is label order, so the
	// collected roots come out rank-sorted across branches.
	sc.actRoots = sc.actRoots[:0]
	sPassive := false
	for _, w := range rcv.Row(cur) {
		bid := sc.branch[w]
		if sc.brActive[bid] {
			sc.actRoots = append(sc.actRoots, w)
		} else if sc.brHasS[bid] {
			sPassive = true
		}
	}
	return sc.actRoots, sPassive
}
