package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"klocal/internal/bigraph"
	"klocal/internal/cluster"
	"klocal/internal/graph"
	"klocal/internal/serve"
	"klocal/internal/verify"
)

// pair is one generated message with dist(s, t) on the base topology.
type pair struct {
	s, t graph.Vertex
	dist int
}

// epochs names the topology each epoch served, for the walk check: lo
// is the oldest epoch a reply may name (the newest one a PATCH reply
// had acknowledged when the request was sent), hi the newest epoch any
// PATCH sent so far can have produced.
type epochs struct {
	lo, hi int64
	topo   func(epoch int64) *graph.Graph
}

// walkCheck is what a reply must satisfy beyond a valid walk.
type walkCheck struct {
	// bound is the dilation bound checked against the pair's distance
	// (0 = none). Only used where dist is exact in every epoch.
	bound float64
	// maxHops bounds the walk length (0 = none).
	maxHops int
}

// checkRouteReply decodes and checks one POST /route reply.
func checkRouteReply(status int, body []byte, p pair, ep epochs, wc walkCheck) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST /route %d -> %d: status %d: %.200s", p.s, p.t, status, body)
	}
	var rr serve.RouteReply
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("POST /route %d -> %d: %w", p.s, p.t, err)
	}
	return checkReply(rr, p, ep, wc)
}

// checkReply checks one routed message: it names the pair and an epoch
// in range, was delivered (every workload routes only pairs whose
// delivery is guaranteed), and its walk is valid on that epoch's
// topology (verify.CheckWalk).
func checkReply(rr serve.RouteReply, p pair, ep epochs, wc walkCheck) error {
	if rr.S != p.s || rr.T != p.t {
		return fmt.Errorf("reply for %d -> %d answers %d -> %d", p.s, p.t, rr.S, rr.T)
	}
	if rr.Epoch < ep.lo || rr.Epoch > ep.hi {
		return fmt.Errorf("%d -> %d: reply names epoch %d, want %d..%d", p.s, p.t, rr.Epoch, ep.lo, ep.hi)
	}
	if !rr.Delivered {
		return fmt.Errorf("%d -> %d undelivered (%s: %s)", p.s, p.t, rr.Outcome, rr.Err)
	}
	if rr.Hops != len(rr.Route)-1 {
		return fmt.Errorf("%d -> %d: hops %d for a walk of %d vertices", p.s, p.t, rr.Hops, len(rr.Route))
	}
	if wc.maxHops > 0 && rr.Hops > wc.maxHops {
		return fmt.Errorf("%d -> %d: %d hops over the %d-step budget", p.s, p.t, rr.Hops, wc.maxHops)
	}
	g := ep.topo(rr.Epoch)
	if g == nil {
		return fmt.Errorf("%d -> %d: no topology for epoch %d", p.s, p.t, rr.Epoch)
	}
	if err := verify.CheckWalk(g, p.s, p.t, rr.Route, 0); err != nil {
		return fmt.Errorf("epoch %d: %w", rr.Epoch, err)
	}
	return checkStretch(p, rr.Hops, rr.Dist, wc)
}

// checkStretch checks a delivered walk's length against the dilation
// bound and, for graph-backed replies, the distance the daemon reported.
func checkStretch(p pair, hops, dist int, wc walkCheck) error {
	if wc.bound <= 0 {
		return nil
	}
	if dist != p.dist {
		return fmt.Errorf("%d -> %d: reply dist %d, want %d", p.s, p.t, dist, p.dist)
	}
	if float64(hops) > wc.bound*float64(p.dist) {
		return fmt.Errorf("%d -> %d: %d hops exceed stretch %g × dist %d", p.s, p.t, hops, wc.bound, p.dist)
	}
	return nil
}

// checkBatchReply decodes and checks one POST /batch reply from a
// store-backed daemon, whose replies carry no distance: every hop must
// be an edge of st.
func checkBatchReply(status int, body []byte, ps []pair, st bigraph.Store, wc walkCheck) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST /batch: status %d: %.200s", status, body)
	}
	var br serve.BatchReply
	if err := json.Unmarshal(body, &br); err != nil {
		return fmt.Errorf("POST /batch: %w", err)
	}
	if len(br.Results) != len(ps) {
		return fmt.Errorf("POST /batch: %d results for %d pairs", len(br.Results), len(ps))
	}
	for i, rr := range br.Results {
		if err := checkStoreReply(rr, ps[i], st, wc); err != nil {
			return fmt.Errorf("batch pair %d: %w", i, err)
		}
	}
	return nil
}

// checkStoreReply is checkReply for a store-backed daemon, with
// verify.CheckWalk's edge check done through st.
func checkStoreReply(rr serve.RouteReply, p pair, st bigraph.Store, wc walkCheck) error {
	walk := rr.Route
	switch {
	case rr.S != p.s || rr.T != p.t:
		return fmt.Errorf("reply for %d -> %d answers %d -> %d", p.s, p.t, rr.S, rr.T)
	case rr.Epoch != 1:
		return fmt.Errorf("%d -> %d: reply names epoch %d, want 1", p.s, p.t, rr.Epoch)
	case !rr.Delivered:
		return fmt.Errorf("%d -> %d undelivered (%s: %s)", p.s, p.t, rr.Outcome, rr.Err)
	case wc.maxHops > 0 && rr.Hops > wc.maxHops:
		return fmt.Errorf("%d -> %d: %d hops over the %d-step budget", p.s, p.t, rr.Hops, wc.maxHops)
	case len(walk) == 0 || walk[0] != p.s || walk[len(walk)-1] != p.t:
		return fmt.Errorf("walk %v is not %d -> %d", walk, p.s, p.t)
	case rr.Hops != len(walk)-1:
		return fmt.Errorf("%d -> %d: hops %d for a walk of %d vertices", p.s, p.t, rr.Hops, len(walk))
	}
	for i := 1; i < len(walk); i++ {
		if !st.HasEdge(walk[i-1], walk[i]) {
			return fmt.Errorf("%d -> %d: hop %d uses non-edge {%d, %d}", p.s, p.t, i, walk[i-1], walk[i])
		}
	}
	return nil
}

// checkDeltaReply decodes and checks one PATCH /graph reply: one delta
// applied, the epoch advanced by exactly one, and the dirty set local.
func checkDeltaReply(status int, body []byte, wantEpoch int64, n int) (serve.DeltaReply, error) {
	var dr serve.DeltaReply
	if status != http.StatusOK {
		return dr, fmt.Errorf("PATCH /graph: status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		return dr, fmt.Errorf("PATCH /graph: %w", err)
	}
	switch {
	case dr.Applied != 1:
		return dr, fmt.Errorf("PATCH /graph: applied %d deltas, want 1", dr.Applied)
	case dr.Epoch != wantEpoch:
		return dr, fmt.Errorf("PATCH /graph: epoch %d, want %d", dr.Epoch, wantEpoch)
	case dr.Dirty <= 0 || dr.Dirty >= n:
		return dr, fmt.Errorf("PATCH /graph: dirty set %d of %d views", dr.Dirty, n)
	}
	return dr, nil
}

// checkClusterReply checks one Member.Route answer on the static
// topology g.
func checkClusterReply(rep *cluster.RouteReply, p pair, g *graph.Graph, wc walkCheck) error {
	if rep.S != p.s || rep.T != p.t {
		return fmt.Errorf("reply for %d -> %d answers %d -> %d", p.s, p.t, rep.S, rep.T)
	}
	if !rep.Delivered {
		return fmt.Errorf("%d -> %d undelivered (%s: %s)", p.s, p.t, rep.ErrKind, rep.Err)
	}
	if rep.Hops != len(rep.Route)-1 {
		return fmt.Errorf("%d -> %d: hops %d for a walk of %d vertices", p.s, p.t, rep.Hops, len(rep.Route))
	}
	if err := verify.CheckWalk(g, p.s, p.t, rep.Route, 0); err != nil {
		return err
	}
	return checkStretch(p, rep.Hops, p.dist, wc)
}
