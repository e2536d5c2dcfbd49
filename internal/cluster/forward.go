package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"klocal/internal/graph"
)

// Typed failure modes of the forwarding path. RouteReply.ErrKind
// carries their wire names so clients (and the e2e assertions) can
// distinguish them without string matching.
var (
	// ErrHopBudget: the walk exhausted its hop budget.
	ErrHopBudget = errors.New("cluster: hop budget exhausted")
	// ErrPeerDeadline: a shard handoff did not complete within the
	// per-hop deadline (the peer is reachable but stalled).
	ErrPeerDeadline = errors.New("cluster: per-hop deadline expired at shard handoff")
	// ErrPeerDown: the next shard is dead or refusing connections.
	ErrPeerDown = errors.New("cluster: next shard is down")
	// ErrPeerUnknown: the owner shard has not been discovered yet.
	ErrPeerUnknown = errors.New("cluster: owner shard not yet discovered")
	// ErrNotReady: k-neighbourhood discovery has not covered the vertex
	// space yet.
	ErrNotReady = errors.New("cluster: discovery incomplete")
	// ErrPartitioned: a complete view proves the destination is not in
	// this component of the discovered topology.
	ErrPartitioned = errors.New("cluster: destination unreachable in the discovered topology")
	// ErrRequestTimeout: the entry member gave up waiting for a reply
	// (the message was likely lost to a crashing shard).
	ErrRequestTimeout = errors.New("cluster: request timed out waiting for the walk to resolve")
	// ErrUnknownVertex: an endpoint outside the addressed vertex space.
	ErrUnknownVertex = errors.New("cluster: vertex outside the served graph")
	// ErrStopped: this member is shutting down.
	ErrStopped = errors.New("cluster: member stopping")
)

// errKindOf maps a forwarding error to its wire name.
func errKindOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrHopBudget):
		return "hop_budget"
	case errors.Is(err, ErrPeerDeadline):
		return "peer_deadline"
	case errors.Is(err, ErrPeerDown):
		return "peer_down"
	case errors.Is(err, ErrPeerUnknown):
		return "peer_unknown"
	case errors.Is(err, ErrNotReady):
		return "not_ready"
	case errors.Is(err, ErrPartitioned):
		return "partitioned"
	case errors.Is(err, ErrRequestTimeout):
		return "timeout"
	case errors.Is(err, ErrUnknownVertex):
		return "unknown_vertex"
	case errors.Is(err, ErrStopped):
		return "stopped"
	default:
		return "routing"
	}
}

// Step is one annotated hop of a cluster walk: which vertex decided,
// and which member it lived on — the distributed analogue of trace.Hop
// (no global distances here; no member can compute them locally).
type Step struct {
	Index  int          `json:"i"`
	Node   graph.Vertex `json:"node"`
	Member int          `json:"member"`
}

// WireMessage is the in-flight routing request handed shard to shard.
// The walk state travels with the message; members keep nothing.
type WireMessage struct {
	ID         uint64         `json:"id"`
	EntryAddr  string         `json:"entry_addr"`
	EntryIndex int            `json:"entry_index"`
	S          graph.Vertex   `json:"s"`
	T          graph.Vertex   `json:"t"`
	Prev       graph.Vertex   `json:"prev"`
	Route      []graph.Vertex `json:"route"`
	Budget     int            `json:"budget"`
	Crossings  int            `json:"crossings"`
	Trace      bool           `json:"trace,omitempty"`
	Steps      []Step         `json:"steps,omitempty"`
}

// RouteReply is the terminal answer for one routing request, built by
// whichever member the walk ended on and returned to the entry member.
// On failure it still carries the partial walk (and per-member trace
// when requested) up to the point the typed error fired.
type RouteReply struct {
	ID        uint64         `json:"id"`
	Member    int            `json:"member"`
	Algo      string         `json:"algo"`
	K         int            `json:"k"`
	S         graph.Vertex   `json:"s"`
	T         graph.Vertex   `json:"t"`
	Delivered bool           `json:"delivered"`
	Hops      int            `json:"hops"`
	Crossings int            `json:"crossings"`
	Route     []graph.Vertex `json:"route,omitempty"`
	Err       string         `json:"err,omitempty"`
	ErrKind   string         `json:"err_kind,omitempty"`
	Steps     []Step         `json:"steps,omitempty"`
	LatencyNS int64          `json:"latency_ns"`
}

// clone deep-copies the walk so sender and receiver never share it
// (the HTTP path gets this isolation from JSON for free).
func (w *WireMessage) clone() *WireMessage {
	cp := *w
	cp.Route = append([]graph.Vertex(nil), w.Route...)
	cp.Steps = append([]Step(nil), w.Steps...)
	return &cp
}

// replyFor builds the terminal reply for msg.
func (m *Member) replyFor(msg *WireMessage, delivered bool, err error) *RouteReply {
	rep := &RouteReply{
		ID:        msg.ID,
		Member:    m.cfg.Index,
		Algo:      m.cfg.Alg.Name,
		K:         m.cfg.K,
		S:         msg.S,
		T:         msg.T,
		Delivered: delivered,
		Hops:      len(msg.Route) - 1,
		Crossings: msg.Crossings,
		Route:     msg.Route,
		Steps:     msg.Steps,
	}
	if err != nil {
		rep.Err = err.Error()
		rep.ErrKind = errKindOf(err)
	}
	return rep
}

// finish terminates the walk: deliver the reply locally when this
// member is the entry, otherwise send it back to the entry member.
func (m *Member) finish(msg *WireMessage, delivered bool, err error) {
	rep := m.replyFor(msg, delivered, err)
	if msg.EntryIndex == m.cfg.Index {
		m.deliverReply(rep)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.PeerDeadline)
	defer cancel()
	if rerr := m.tr.Reply(ctx, msg.EntryAddr, rep); rerr != nil {
		// The entry's request timeout is the backstop for a lost reply.
		m.met.Count("replies_lost", 1)
		return
	}
	m.met.Count("replies_sent", 1)
}

// process advances the walk while its head vertex is owned here, then
// either terminates it (reply to entry) or hands it to the next shard.
func (m *Member) process(msg *WireMessage) {
	ownerT, knownT := m.asn.Owner(msg.T)
	for {
		u := msg.Route[len(msg.Route)-1]
		if msg.Trace {
			msg.Steps = append(msg.Steps, Step{Index: len(msg.Steps), Node: u, Member: m.cfg.Index})
		}
		if u == msg.T {
			m.finish(msg, true, nil)
			return
		}
		// Fail fast once the destination's shard is known-dead instead
		// of walking the full budget toward a withdrawn region.
		if knownT && ownerT != m.cfg.Index && m.down[ownerT].Load() {
			m.finish(msg, false, fmt.Errorf("%w: destination shard %d", ErrPeerDown, ownerT))
			return
		}
		if msg.Budget <= 0 {
			m.finish(msg, false, fmt.Errorf("%w after %d hops", ErrHopBudget, len(msg.Route)-1))
			return
		}
		ep := m.current()
		raw := ep.pre.At(u).C.Raw
		if _, in := raw.Index(msg.T); !in && complete(raw) {
			m.finish(msg, false, fmt.Errorf("%w: %d not in the complete view of %d", ErrPartitioned, msg.T, u))
			return
		}
		next, err := ep.decide(msg.S, msg.T, u, msg.Prev)
		if err != nil {
			m.finish(msg, false, err)
			return
		}
		if !m.isOwnNeighbor(u, next) {
			m.finish(msg, false, fmt.Errorf("cluster: algorithm chose %d, not a neighbour of %d", next, u))
			return
		}
		msg.Prev = u
		msg.Route = append(msg.Route, next)
		msg.Budget--
		m.met.Count("forwards", 1)
		owner, ok := m.asn.Owner(next)
		if !ok {
			m.finish(msg, false, fmt.Errorf("%w: %d", ErrUnknownVertex, next))
			return
		}
		if owner == m.cfg.Index {
			continue
		}
		msg.Crossings++
		m.met.Count("crossings", 1)
		if err := m.handoff(owner, msg); err != nil {
			m.finish(msg, false, err)
			return
		}
		return // the next shard owns the walk now
	}
}

// isOwnNeighbor checks the algorithm's step against the member's
// a-priori adjacency — the one structural fact it holds about u.
func (m *Member) isOwnNeighbor(u, w graph.Vertex) bool {
	for _, x := range m.adj[u] {
		if x == w {
			return true
		}
	}
	return false
}

// handoff transfers the walk to the owner shard with a per-attempt
// deadline and bounded retry-with-backoff on transient errors.
func (m *Member) handoff(owner int, msg *WireMessage) error {
	addr, dead, known := m.peerAddr(owner)
	if !known {
		return fmt.Errorf("%w: shard %d", ErrPeerUnknown, owner)
	}
	if dead {
		return fmt.Errorf("%w: shard %d", ErrPeerDown, owner)
	}
	var lastErr error
	for att := 1; att <= m.cfg.ForwardAttempts; att++ {
		if att > 1 {
			m.met.Count("forward_retries", 1)
			d := m.cfg.RetryBase * time.Duration(m.plan.Backoff(att-1))
			select {
			case <-m.stop:
				return ErrStopped
			case <-time.After(d):
			}
			// The membership layer may have condemned the peer while we
			// backed off; inherit its verdict instead of retrying.
			if _, nowDead, _ := m.peerAddr(owner); nowDead {
				return fmt.Errorf("%w: shard %d", ErrPeerDown, owner)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.PeerDeadline)
		err := m.tr.Forward(ctx, addr, msg)
		cancel()
		if err == nil {
			return nil
		}
		if errors.Is(err, context.DeadlineExceeded) {
			lastErr = fmt.Errorf("%w: shard %d attempt %d", ErrPeerDeadline, owner, att)
		} else {
			lastErr = fmt.Errorf("%w: shard %d attempt %d: %v", ErrPeerDown, owner, att, err)
		}
	}
	return lastErr
}

// acceptForward admits an inbound walk whose head vertex we own and
// processes it asynchronously; the sender's positive response is only
// "accepted", never the outcome (that goes to the entry member).
func (m *Member) acceptForward(msg *WireMessage) error {
	if len(msg.Route) == 0 {
		return fmt.Errorf("cluster: empty walk")
	}
	head := msg.Route[len(msg.Route)-1]
	if _, owned := m.adj[head]; !owned {
		return fmt.Errorf("cluster: vertex %d not owned by shard %d", head, m.cfg.Index)
	}
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return ErrStopped
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		m.process(msg)
	}()
	return nil
}

// deliverReply resolves the waiter for an inbound terminal reply.
func (m *Member) deliverReply(rep *RouteReply) {
	m.waitMu.Lock()
	ch, ok := m.waiters[rep.ID]
	if ok {
		delete(m.waiters, rep.ID)
	}
	m.waitMu.Unlock()
	if ok {
		ch <- rep // buffered; never blocks
	}
}

// Route runs one request end to end from this member: admit, forward
// hop by hop across the cluster, and wait for the terminal reply. The
// returned error is non-nil only for malformed requests; routing
// failures come back typed inside the reply.
func (m *Member) Route(ctx context.Context, s, t graph.Vertex, withTrace bool) (*RouteReply, error) {
	start := time.Now()
	finish := func(rep *RouteReply) *RouteReply {
		rep.LatencyNS = time.Since(start).Nanoseconds()
		m.met.Count("requests", 1)
		if rep.Delivered {
			m.met.Count("delivered", 1)
			m.met.Observe("hops", int64(rep.Hops))
			m.met.Observe("crossings_per_req", int64(rep.Crossings))
		} else {
			m.met.Count("failed", 1)
			if rep.ErrKind != "" {
				m.met.Count("failed_"+rep.ErrKind, 1)
			}
		}
		m.met.Observe("latency_ns", rep.LatencyNS)
		return rep
	}
	msg := &WireMessage{
		EntryAddr:  m.cfg.SelfAddr,
		EntryIndex: m.cfg.Index,
		S:          s,
		T:          t,
		Prev:       graph.NoVertex,
		Route:      []graph.Vertex{s},
		Budget:     m.cfg.HopBudget,
		Trace:      withTrace,
	}
	if _, ok := m.asn.Owner(s); !ok {
		return finish(m.replyFor(msg, false, fmt.Errorf("%w: s=%d", ErrUnknownVertex, s))), nil
	}
	if _, ok := m.asn.Owner(t); !ok {
		return finish(m.replyFor(msg, false, fmt.Errorf("%w: t=%d", ErrUnknownVertex, t))), nil
	}
	if m.isStopped() {
		return finish(m.replyFor(msg, false, ErrStopped)), nil
	}
	if !m.Ready() {
		return finish(m.replyFor(msg, false, ErrNotReady)), nil
	}

	msg.ID = m.nextID.Add(1)
	ch := make(chan *RouteReply, 1)
	m.waitMu.Lock()
	m.waiters[msg.ID] = ch
	m.waitMu.Unlock()

	owner, _ := m.asn.Owner(s)
	if owner == m.cfg.Index {
		// The walker mutates its copy; the entry keeps msg pristine for
		// the timeout reply.
		if err := m.acceptForward(msg.clone()); err != nil {
			m.dropWaiter(msg.ID)
			return finish(m.replyFor(msg, false, err)), nil
		}
	} else {
		msg.Crossings++
		m.met.Count("crossings", 1)
		if err := m.handoff(owner, msg); err != nil {
			m.dropWaiter(msg.ID)
			return finish(m.replyFor(msg, false, err)), nil
		}
	}

	timer := time.NewTimer(m.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case rep := <-ch:
		return finish(rep), nil
	case <-ctx.Done():
		m.dropWaiter(msg.ID)
		return finish(m.replyFor(msg, false, fmt.Errorf("%w: %v", ErrRequestTimeout, ctx.Err()))), nil
	case <-timer.C:
		m.dropWaiter(msg.ID)
		return finish(m.replyFor(msg, false, ErrRequestTimeout)), nil
	case <-m.stop:
		m.dropWaiter(msg.ID)
		return finish(m.replyFor(msg, false, ErrStopped)), nil
	}
}

func (m *Member) dropWaiter(id uint64) {
	m.waitMu.Lock()
	delete(m.waiters, id)
	m.waitMu.Unlock()
}
