package serve

import (
	"fmt"
	"net/http"
	"time"

	"klocal/internal/churn"
	"klocal/internal/engine"
	"klocal/internal/graph"
)

// This file is PATCH /graph: incremental topology deltas. Where PUT
// rebuilds the whole generation (graph construction, full preprocessing,
// optional prewarm), PATCH applies a churn.Delta batch copy-on-write and
// derives the next generation from the current one — every algorithm's
// snapshot adopts the cached views outside the dirty k-ball of the
// touched endpoints (engine.Snapshot.Incremental → prep.Derive) and
// recomputes only the dirty ones, lazily. The derived snapshots go to
// the same engines through the same Engine.SwapSnapshot as PUT's, so
// nothing waits: routes in flight finish on the old epoch's consistent
// (graph, views) pair while new requests route on the new epoch, on the
// same warm lanes.

// DeltaSpec is one topology mutation in the PATCH /graph wire format.
type DeltaSpec struct {
	// Op is add-edge | remove-edge | add-vertex | remove-vertex.
	Op string       `json:"op"`
	U  graph.Vertex `json:"u"`
	V  graph.Vertex `json:"v,omitempty"`
}

// Delta converts the wire form to the churn op.
func (ds DeltaSpec) Delta() (churn.Delta, error) {
	var op churn.Op
	switch ds.Op {
	case "add-edge":
		op = churn.AddEdge
	case "remove-edge":
		op = churn.RemoveEdge
	case "add-vertex":
		op = churn.AddVertex
	case "remove-vertex":
		op = churn.RemoveVertex
	default:
		return churn.Delta{}, fmt.Errorf("unknown delta op %q (add-edge|remove-edge|add-vertex|remove-vertex)", ds.Op)
	}
	return churn.Delta{Op: op, U: ds.U, V: ds.V}, nil
}

// DeltaRequest is the JSON body of PATCH /graph.
type DeltaRequest struct {
	Deltas []DeltaSpec `json:"deltas"`
}

// DeltaReply is the JSON body of a PATCH /graph response: the new
// generation plus the cost of getting there.
type DeltaReply struct {
	GraphReply
	// Applied is the number of deltas applied (all-or-nothing).
	Applied int `json:"applied"`
	// Dirty is the size of the k-radius dirty set: how many vertices had
	// their cached views invalidated. Everything else survived the swap.
	Dirty int `json:"dirty"`
	// ApplyNS is the wall time to apply the batch and publish the new
	// generation.
	ApplyNS int64 `json:"apply_ns"`
}

// ApplyDeltas applies a validated churn batch to the current topology,
// swaps the derived snapshots into the engines and publishes the new
// generation. It returns the new generation, the dirty-set size, and
// its own wall time. The batch is all-or-nothing: any invalid delta
// rejects the whole request and the current generation is untouched.
func (s *Server) ApplyDeltas(deltas []churn.Delta) (*generation, int, time.Duration, error) {
	start := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.stopped.Load() {
		return nil, 0, 0, fmt.Errorf("server stopping")
	}
	cur := s.gen.Load()
	if cur.g == nil {
		return nil, 0, 0, fmt.Errorf("incremental deltas need a materialized graph; generation epoch %d is store-backed", cur.epoch)
	}
	// One dirty set at the largest deployed locality: algorithms bound at
	// smaller k re-derive a few views they could have kept, which is
	// over-invalidation (safe), never under.
	kmax := 1
	for _, e := range s.engines {
		kmax = max(kmax, e.Snapshot().K())
	}
	post, dirty, err := churn.ApplyAll(cur.g, deltas, kmax)
	if err != nil {
		return nil, 0, 0, err
	}
	if post.N() == 0 {
		return nil, 0, 0, fmt.Errorf("delta batch would empty the graph")
	}
	snaps := make([]*engine.Snapshot, len(s.cfg.Algorithms))
	for i, name := range s.cfg.Algorithms {
		if snaps[i], err = s.engines[name].Snapshot().Incremental(post, dirty); err != nil {
			return nil, 0, 0, err
		}
	}
	nd := s.swap(cur.spec, post, snaps)
	return nd, len(dirty), time.Since(start), nil
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !s.decodeBody(w, r, maxDeltaBody, "delta body", &req) {
		return
	}
	if len(req.Deltas) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty delta batch"))
		return
	}
	deltas := make([]churn.Delta, len(req.Deltas))
	for i, ds := range req.Deltas {
		d, err := ds.Delta()
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("delta %d: %w", i, err))
			return
		}
		deltas[i] = d
	}
	nd, dirty, applied, err := s.ApplyDeltas(deltas)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, DeltaReply{
		GraphReply: s.describe(nd),
		Applied:    len(deltas),
		Dirty:      dirty,
		ApplyNS:    applied.Nanoseconds(),
	})
}
