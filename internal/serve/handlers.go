package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/httpbody"
	"klocal/internal/metrics"
	"klocal/internal/sim"
	"klocal/internal/trace"
)

// RouteRequest is the JSON body of POST /route.
type RouteRequest struct {
	S graph.Vertex `json:"s"`
	T graph.Vertex `json:"t"`
	// Algo names the algorithm ("" = the daemon's default).
	Algo string `json:"algo,omitempty"`
	// Trace asks for the hop-by-hop annotation of the walk. Ignored on
	// store-backed (kind "file") deployments, where the full topology
	// needed to annotate hops is never materialized.
	Trace bool `json:"trace,omitempty"`
}

// RouteReply is the JSON body of a routed request — one element of a
// /batch reply, or the whole /route reply.
type RouteReply struct {
	// Rev identifies the graph generation that routed the request, so
	// clients (and the hot-swap test) can validate the walk against the
	// right topology. Epoch is the topology version (bumped by PUT and
	// PATCH /graph alike), the counter to correlate with GraphReply.Epoch.
	Rev       int64        `json:"rev"`
	Epoch     int64        `json:"epoch"`
	Algo      string       `json:"algo"`
	K         int          `json:"k"`
	S         graph.Vertex `json:"s"`
	T         graph.Vertex `json:"t"`
	Outcome   string       `json:"outcome"`
	Delivered bool         `json:"delivered"`
	Hops      int          `json:"hops"`
	Dist      int          `json:"dist"`
	// Stretch is hops/dist for delivered messages with dist > 0.
	Stretch   float64        `json:"stretch,omitempty"`
	LatencyNS int64          `json:"latency_ns"`
	Worker    int            `json:"worker"`
	Route     []graph.Vertex `json:"route"`
	Err       string         `json:"err,omitempty"`
	// Trace is the annotated walk, present when the request asked for it.
	Trace []trace.Hop `json:"trace,omitempty"`
}

// BatchRequest is the JSON body of POST /batch.
type BatchRequest struct {
	Pairs [][2]graph.Vertex `json:"pairs"`
	Algo  string            `json:"algo,omitempty"`
}

// BatchReply is the JSON body of a POST /batch response.
type BatchReply struct {
	Rev     int64        `json:"rev"`
	Epoch   int64        `json:"epoch"`
	Algo    string       `json:"algo"`
	Results []RouteReply `json:"results"`
}

// GraphReply is the JSON body of PUT, PATCH and GET /graph responses.
type GraphReply struct {
	Rev int64 `json:"rev"`
	// Epoch is the topology version counter: clients that PUT or PATCH
	// the graph read it back here and match it against the epoch echoed
	// in route replies to know which routes saw the new topology.
	Epoch int64     `json:"epoch"`
	Spec  GraphSpec `json:"spec"`
	N     int       `json:"n"`
	M     int       `json:"m"`
	Built time.Time `json:"built"`
	Algos []string  `json:"algos"`
}

// Handler returns the daemon's full HTTP surface:
//
//	POST /route          route one (s, t) pair, optional hop trace
//	POST /batch          route a batch of pairs in order
//	PUT  /graph          hot-swap the topology (GraphSpec body)
//	PATCH /graph         apply incremental deltas (DeltaRequest body)
//	GET  /graph          describe the current generation
//	GET  /metrics        live merged metrics (text; ?format=json)
//	GET  /healthz        process liveness
//	GET  /readyz         serving readiness (503 while draining)
//	     /debug/pprof/   net/http/pprof
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /route", s.handleRoute)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("PUT /graph", s.handleSwap)
	mux.HandleFunc("PATCH /graph", s.handleDelta)
	mux.HandleFunc("GET /graph", s.handleGraph)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxPooledReply caps the buffers returned to replyBufs: one that grew
// past it (a /batch of hundreds of pairs) is left to the collector, so
// one huge batch cannot pin its reply in the pool.
const maxPooledReply = 64 << 10

// replyBufs holds the *bytes.Buffer replies are encoded into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON sends every reply of the daemon: v as one line of compact
// JSON, encoded into a pooled buffer and sent in one Write with its
// Content-Length set. A value encoding/json refuses becomes a 500 error
// reply instead of a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(errorReply{Error: "encoding the reply: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone; there is no one left to tell
	if buf.Cap() <= maxPooledReply {
		replyBufs.Put(buf)
	}
}

type errorReply struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		s.httpRejections.Add(1)
	}
	writeJSON(w, status, errorReply{Error: err.Error()})
}

// Request-body ceilings, so that no single request makes the daemon
// allocate without bound.
const (
	// maxRouteBody: a RouteRequest encodes in under 100 bytes.
	maxRouteBody = 1 << 12
	// maxBatchBody admits about 2·10⁵ pairs at ~20 bytes each.
	maxBatchBody = 1 << 22
	// maxDeltaBody admits about 10⁴ deltas at ~60 bytes each.
	maxDeltaBody = 1 << 20
	// maxGraphBody admits, in compact JSON, the largest spec PUT /graph
	// builds: an "edges" spec of maxSpecEdges edges at the widest labels
	// (`[-9223372036854775808,-9223372036854775808],`, 44 bytes each),
	// plus 4 KiB for the other fields: 176 MiB. An indented spec fits
	// when its labels are narrower; whitespace is not budgeted.
	maxGraphBody = 44*maxSpecEdges + 1<<12
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes,
// and answers a failure itself (httpbody.Decode: 413 past the limit,
// 400 when malformed). It reports whether v was decoded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	status, err := httpbody.Decode(w, r, limit, what, v)
	if err != nil {
		s.fail(w, status, err)
		return false
	}
	return true
}

// algorithm resolves the algorithm parameter ("" = the default, i.e.
// the first configured algorithm) to its name and engine.
func (s *Server) algorithm(name string) (string, *engine.Engine, error) {
	if name == "" {
		name = s.cfg.Algorithms[0]
	}
	e, ok := s.engines[name]
	if !ok {
		return "", nil, fmt.Errorf("algorithm %q not deployed (have %v)", name, s.cfg.Algorithms)
	}
	return name, e, nil
}

// failRoute answers an engine error: 429 when every lane stayed busy
// past the admission budget, 400 for a vertex the graph lacks, 503 once
// the daemon is draining.
func (s *Server) failRoute(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrSaturated):
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, engine.ErrNoVertex):
		s.fail(w, http.StatusBadRequest, err)
	default:
		s.fail(w, http.StatusServiceUnavailable, err)
	}
}

// reply converts an engine response into the wire form, tracing the walk
// against the graph of the snapshot it ran on when asked.
func reply(name string, resp engine.Response, withTrace bool) RouteReply {
	res := resp.Result
	rr := RouteReply{
		Rev:       resp.Epoch,
		Epoch:     resp.Epoch,
		Algo:      name,
		K:         resp.Snapshot.K(),
		S:         resp.S,
		T:         resp.T,
		Outcome:   res.Outcome.String(),
		Delivered: res.Outcome == sim.Delivered,
		Hops:      res.Len(),
		Dist:      res.Dist,
		LatencyNS: resp.Latency.Nanoseconds(),
		Worker:    resp.Worker,
		Route:     res.Route,
	}
	if rr.Delivered && res.Dist > 0 {
		rr.Stretch = res.Dilation()
	}
	if res.Err != nil {
		rr.Err = res.Err.Error()
	}
	if g := resp.Snapshot.Graph(); withTrace && g != nil {
		rr.Trace = trace.RouteHops(g, res.Route, resp.T)
	}
	return rr
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	var req RouteRequest
	if !s.decodeBody(w, r, maxRouteBody, "request body", &req) {
		return
	}
	name, eng, err := s.algorithm(req.Algo)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	resp, err := eng.Do(engine.Request{S: req.S, T: req.T}, s.cfg.AdmissionBudget)
	if err != nil {
		s.failRoute(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reply(name, resp, req.Trace))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	var req BatchRequest
	if !s.decodeBody(w, r, maxBatchBody, "request body", &req) {
		return
	}
	if len(req.Pairs) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	name, eng, err := s.algorithm(req.Algo)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	reqs := make([]engine.Request, len(req.Pairs))
	for i, p := range req.Pairs {
		reqs[i] = engine.Request{S: p[0], T: p[1]}
	}
	resps, err := eng.DoBatch(reqs, s.cfg.AdmissionBudget)
	if err != nil {
		s.failRoute(w, err)
		return
	}
	// DoBatch routes the whole batch on one snapshot.
	br := BatchReply{Rev: resps[0].Epoch, Epoch: resps[0].Epoch, Algo: name, Results: make([]RouteReply, len(resps))}
	for i, resp := range resps {
		br.Results[i] = reply(name, resp, false)
	}
	writeJSON(w, http.StatusOK, br)
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if !s.decodeBody(w, r, maxGraphBody, "graph spec", &spec) {
		return
	}
	nd, err := s.Swap(spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.describe(nd))
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	if g == nil {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server stopping"))
		return
	}
	writeJSON(w, http.StatusOK, s.describe(g))
}

func (s *Server) describe(g *generation) GraphReply {
	return GraphReply{
		Rev:   g.epoch,
		Epoch: g.epoch,
		Spec:  g.spec,
		N:     g.n,
		M:     g.m,
		Built: g.built,
		Algos: s.cfg.Algorithms,
	}
}

// MetricsReply is the JSON body of GET /metrics?format=json.
type MetricsReply struct {
	// Rev is the current generation (0 after Drain).
	Rev int64 `json:"rev"`
	// HTTPRequests counts routing requests accepted at the HTTP layer
	// (/route and /batch calls, not individual batch pairs).
	HTTPRequests int64 `json:"http_requests"`
	// HTTPRejections counts 429 admission rejections.
	HTTPRejections int64 `json:"http_rejections"`
	// Algorithms maps each algorithm to its cumulative report: its
	// engine's counters over every generation served, so they reconcile
	// exactly with the responses served so far.
	Algorithms map[string]*metrics.Report `json:"algorithms"`
}

// snapshotMetrics assembles the live cumulative view. It never blocks a
// route in flight: Engine.LiveReport copies the lane shards live.
func (s *Server) snapshotMetrics() MetricsReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := MetricsReply{
		HTTPRequests:   s.httpRequests.Load(),
		HTTPRejections: s.httpRejections.Load(),
		Algorithms:     make(map[string]*metrics.Report),
	}
	g := s.gen.Load()
	if g != nil {
		out.Rev = g.epoch
	}
	for _, name := range s.cfg.Algorithms {
		eng := s.engines[name]
		rep := eng.LiveReport()
		rep.Name = fmt.Sprintf("klocald %s", name)
		if g != nil {
			rep.Put("rev", float64(g.epoch))
		}
		cs := eng.Snapshot().CacheStats()
		rep.Put("cache_size", float64(cs.Size))
		// Interval rate gauges: deltas since the previous scrape
		// (CacheStats.Delta clamps across a swap, where the new snapshot's
		// cache counters restart below the old baseline).
		prev := s.lastScrape[name]
		if !prev.at.IsZero() {
			if secs := now.Sub(prev.at).Seconds(); secs > 0 {
				dc := cs.Delta(prev.cache)
				rep.Put("interval_s", secs)
				rep.Put("cache_hits_per_s", float64(dc.Hits)/secs)
				rep.Put("cache_misses_per_s", float64(dc.Misses)/secs)
				if dr := rep.Counter("requests") - prev.reqs; dr > 0 {
					rep.Put("requests_per_s", float64(dr)/secs)
				}
			}
		}
		s.lastScrape[name] = scrapePoint{at: now, cache: cs, reqs: rep.Counter("requests")}
		out.Algorithms[name] = rep
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.snapshotMetrics()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "rev                      %d\n", m.Rev)
	fmt.Fprintf(w, "http_requests            %d\n", m.HTTPRequests)
	fmt.Fprintf(w, "http_rejections          %d\n", m.HTTPRejections)
	for _, name := range s.cfg.Algorithms {
		if rep, ok := m.Algorithms[name]; ok {
			fmt.Fprintln(w)
			rep.WriteText(w)
		}
	}
}
