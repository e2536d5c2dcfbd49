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
// recomputes only the dirty ones, lazily. The new generation is
// published through the same refcounted pointer swap as PUT, so there is
// no drain in front of new traffic: requests that already acquired the
// old generation finish on its consistent (graph, views) pair while new
// requests route on the new epoch immediately.

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
	// generation. It excludes retiring the old one (its drain, engine
	// close and metrics fold), which the reply still waits for.
	ApplyNS int64 `json:"apply_ns"`
}

// ApplyDeltas applies a validated churn batch to the current topology
// and publishes the derived generation. It returns the new deployment,
// the dirty-set size, and the wall time from its call to the publish;
// it returns only after the old generation is retired. The batch is
// all-or-nothing: any invalid delta rejects the whole request and the
// current generation is untouched.
func (s *Server) ApplyDeltas(deltas []churn.Delta) (*deployment, int, time.Duration, error) {
	start := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.stopped.Load() {
		return nil, 0, 0, fmt.Errorf("server stopping")
	}
	cur := s.cur.Load()
	if cur == nil {
		return nil, 0, 0, fmt.Errorf("no deployment")
	}
	if cur.g == nil {
		return nil, 0, 0, fmt.Errorf("incremental deltas need a materialized graph; generation rev %d is store-backed", cur.rev)
	}
	// One dirty set at the largest deployed locality: algorithms bound at
	// smaller k re-derive a few views they could have kept, which is
	// over-invalidation (safe), never under.
	kmax := 1
	for _, ae := range cur.byAlg {
		if k := ae.snap.K(); k > kmax {
			kmax = k
		}
	}
	post, dirty, err := churn.ApplyAll(cur.g, deltas, kmax)
	if err != nil {
		return nil, 0, 0, err
	}
	if post.N() == 0 {
		return nil, 0, 0, fmt.Errorf("delta batch would empty the graph")
	}
	nd := &deployment{
		rev:     s.nextRev.Add(1),
		epoch:   s.epoch.Add(1),
		spec:    cur.spec, // provenance only; N/M are read from the store
		st:      post,
		g:       post,
		built:   time.Now(),
		byAlg:   make(map[string]*algEngine),
		drained: make(chan struct{}),
	}
	for _, name := range cur.algs {
		ae := cur.byAlg[name]
		snap, err := ae.snap.Incremental(post, dirty)
		if err != nil {
			return nil, 0, 0, err
		}
		eng := engine.New(snap, engine.Config{Workers: s.cfg.Workers, MaxSteps: s.cfg.MaxSteps})
		nd.algs = append(nd.algs, name)
		nd.byAlg[name] = &algEngine{name: name, snap: snap, eng: eng}
	}
	s.mu.Lock()
	s.live[nd.rev] = nd
	s.mu.Unlock()
	old := s.cur.Swap(nd)
	applied := time.Since(start)
	if old != nil {
		s.retire(old)
	}
	return nd, len(dirty), applied, nil
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
