package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"klocal/internal/graph"
	"klocal/internal/httpbody"
)

// RouteRequest is the JSON body of POST /route on a cluster member —
// the same shape the single-process daemon accepts, so clients can
// point at any member unchanged (the cluster has exactly one algorithm,
// so Algo is accepted and ignored).
type RouteRequest struct {
	S     int    `json:"s"`
	T     int    `json:"t"`
	Algo  string `json:"algo,omitempty"`
	Trace bool   `json:"trace,omitempty"`
}

// Handler returns a member's HTTP surface:
//
//	POST /route           route one (s, t) pair from this entry member
//	POST /cluster/hello   membership heartbeat (peer-to-peer)
//	POST /cluster/lsa     link-state batch (peer-to-peer)
//	POST /cluster/forward hop handoff (peer-to-peer)
//	POST /cluster/reply   terminal reply to the entry member
//	GET  /cluster/status  protocol state (Stats)
//	GET  /metrics         member metrics (text; ?format=json)
//	GET  /healthz         process liveness
//	GET  /readyz          503 until discovery covers the vertex space
func (m *Member) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /route", m.handleRouteHTTP)
	mux.HandleFunc("POST /cluster/hello", m.handleHelloHTTP)
	mux.HandleFunc("POST /cluster/lsa", m.handleLSAHTTP)
	mux.HandleFunc("POST /cluster/forward", m.handleForwardHTTP)
	mux.HandleFunc("POST /cluster/reply", m.handleReplyHTTP)
	mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
	mux.HandleFunc("GET /metrics", m.handleMetricsHTTP)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !m.Ready() {
			http.Error(w, "discovering", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is sent; an error here cannot reach the peer
}

type errorReply struct {
	Error string `json:"error"`
}

// Request-body ceilings. /route and HELLO do not grow with the graph.
// The LSA, Forward and Reply messages do, so their ceilings are derived
// for each member from its vertex count and hop budget (bodyLimits).
const (
	// maxRouteBody bounds POST /route: a RouteRequest encodes in under
	// 100 bytes.
	maxRouteBody = 1 << 12
	// maxHelloBody bounds a HELLO: one PeerInfo row per member, at most
	// 80 bytes plus the member's address, so 1 MiB admits thousands of
	// members.
	maxHelloBody = 1 << 20
	// envelopeBytes is the allowance, in the derived ceilings, for all
	// but the lists that grow with the graph: the scalar fields, a
	// PeerInfo row, an error text.
	envelopeBytes = 64 << 10
)

// The widest JSON encodings the derived ceilings count.
const (
	intBytes    = 20              // "-9223372036854775808", or a uint64's 20 digits
	vertexBytes = intBytes + 1    // a vertex and its separating comma
	lsaBytes    = 40 + 2*intBytes // a WireLSA but its adjacency, comma included
	stepBytes   = 25 + 3*intBytes // a traced Step, comma included
)

// bodyLimits are a member's ceilings on the messages that grow with the
// graph, each the largest such message a member of its cluster sends.
// An LSA batch holds at most lsaBatchBytes of announcements, or one
// larger announcement, whose adjacency is at most the other n − 1
// vertices. A Forward or a Reply carries a walk of at most hopBudget
// hops: a route of hopBudget + 1 vertices and, when traced, as many
// Steps. Members of one cluster share n, and the hop budget unless they
// are configured apart.
type bodyLimits struct {
	lsa, walk int64
}

func newBodyLimits(n, hopBudget int) bodyLimits {
	const perHop = vertexBytes + stepBytes
	hops := min(int64(hopBudget), (math.MaxInt64-envelopeBytes)/perHop-1) + 1
	return bodyLimits{
		lsa:  envelopeBytes + max(lsaBatchBytes, lsaBytes+vertexBytes*int64(n-1)),
		walk: envelopeBytes + hops*perHop,
	}
}

// decodeInto decodes r's JSON body into v, reading at most limit bytes,
// and answers a failure itself (httpbody.Decode: 413 past the limit,
// 400 when malformed). It reports whether v was decoded.
func decodeInto(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	status, err := httpbody.Decode(w, r, limit, "request body", v)
	if err != nil {
		writeJSON(w, status, errorReply{Error: err.Error()})
		return false
	}
	return true
}

// replyStatus maps a RouteReply to its HTTP status: delivered walks are
// 200, malformed requests 400, and every typed routing failure is a 503
// whose body still carries the partial walk and trace.
func replyStatus(rep *RouteReply) int {
	switch {
	case rep.Delivered:
		return http.StatusOK
	case rep.ErrKind == "unknown_vertex":
		return http.StatusBadRequest
	default:
		return http.StatusServiceUnavailable
	}
}

func (m *Member) handleRouteHTTP(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	if !decodeInto(w, r, maxRouteBody, &req) {
		return
	}
	rep, err := m.Route(r.Context(), graph.Vertex(req.S), graph.Vertex(req.T), req.Trace)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, replyStatus(rep), rep)
}

func (m *Member) handleHelloHTTP(w http.ResponseWriter, r *http.Request) {
	var msg HelloMsg
	if !decodeInto(w, r, maxHelloBody, &msg) {
		return
	}
	writeJSON(w, http.StatusOK, m.handleHello(&msg))
}

func (m *Member) handleLSAHTTP(w http.ResponseWriter, r *http.Request) {
	var batch LSABatch
	if !decodeInto(w, r, m.lim.lsa, &batch) {
		return
	}
	writeJSON(w, http.StatusOK, m.handleLSAs(&batch))
}

func (m *Member) handleForwardHTTP(w http.ResponseWriter, r *http.Request) {
	var msg WireMessage
	if !decodeInto(w, r, m.lim.walk, &msg) {
		return
	}
	if err := m.acceptForward(&msg); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func (m *Member) handleReplyHTTP(w http.ResponseWriter, r *http.Request) {
	var rep RouteReply
	if !decodeInto(w, r, m.lim.walk, &rep) {
		return
	}
	m.deliverReply(&rep)
	w.WriteHeader(http.StatusAccepted)
}

func (m *Member) handleMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	rep := m.Metrics()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.WriteText(w)
}
