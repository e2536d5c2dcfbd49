package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/prep"
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

// errKinds gives each typed forwarding error its wire name. An error
// matching none of them is a routing error (routingKind).
var errKinds = [...]struct {
	err  error
	name string
}{
	{ErrHopBudget, "hop_budget"},
	{ErrPeerDeadline, "peer_deadline"},
	{ErrPeerDown, "peer_down"},
	{ErrPeerUnknown, "peer_unknown"},
	{ErrNotReady, "not_ready"},
	{ErrPartitioned, "partitioned"},
	{ErrRequestTimeout, "timeout"},
	{ErrUnknownVertex, "unknown_vertex"},
	{ErrStopped, "stopped"},
}

const routingKind = "routing"

// errKindOf maps a forwarding error to its wire name.
func errKindOf(err error) string {
	if err == nil {
		return ""
	}
	for _, k := range errKinds {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	return routingKind
}

// failedCounter returns the failed_<kind> counter of a reply's ErrKind,
// or false for a kind errKindOf never returns (a peer's reply may carry
// any string).
func failedCounter(kind string) (metrics.CounterID, bool) {
	for i, k := range errKinds {
		if k.name == kind {
			return mFailedKind[i], true
		}
	}
	if kind == routingKind {
		return mFailedKind[len(errKinds)], true
	}
	return 0, false
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
	if rerr := m.tr.Reply(msg.EntryAddr, rep, m.cfg.PeerDeadline); rerr != nil {
		// The entry's request timeout is the backstop for a lost reply.
		m.met.Add(mRepliesLost, 1)
		return
	}
	m.met.Add(mRepliesSent, 1)
}

// process advances the walk while its head vertex is owned here, then
// either terminates it (reply to entry) or hands it to the next shard.
// The segment's hops are counted once, before the walk leaves this
// member, so no reply reaches its entry member ahead of its counts.
func (m *Member) process(msg *WireMessage) {
	entered := len(msg.Route)
	sc := <-m.scratch
	owner, err := m.walk(msg, sc)
	m.scratch <- sc
	if hops := len(msg.Route) - entered; hops > 0 {
		m.met.Add(mForwards, int64(hops))
	}
	if owner < 0 {
		m.finish(msg, err == nil, err)
		return
	}
	msg.Crossings++
	m.met.Add(mCrossings, 1)
	if err := m.handoff(owner, msg); err != nil {
		m.finish(msg, false, err)
	}
}

// walk takes the walk's hops on sc while its head is owned here. It
// returns the shard that owns the new head, or −1 when the walk ends
// here: delivered when err is nil, failed with err otherwise. A hop
// costs one view lookup and one decision; the destination is searched
// for in the view only when the view is complete, to prove a partition.
func (m *Member) walk(msg *WireMessage, sc *prep.Scratch) (int, error) {
	ownerT, knownT := m.asn.Owner(msg.T)
	u := msg.Route[len(msg.Route)-1]
	row, _ := m.ownAdj(u) // acceptForward admits only owned heads
	for {
		if msg.Trace {
			msg.Steps = append(msg.Steps, Step{Index: len(msg.Steps), Node: u, Member: m.cfg.Index})
		}
		if u == msg.T {
			return -1, nil
		}
		// Fail fast once the destination's shard is known-dead instead
		// of walking the full budget toward a withdrawn region.
		if knownT && ownerT != m.cfg.Index && m.down[ownerT].Load() {
			return -1, fmt.Errorf("%w: destination shard %d", ErrPeerDown, ownerT)
		}
		if msg.Budget <= 0 {
			return -1, fmt.Errorf("%w after %d hops", ErrHopBudget, len(msg.Route)-1)
		}
		ep := m.current()
		view := ep.pre.At(u, sc)
		if raw := view.C.Raw; raw.Complete && !raw.Contains(msg.T) {
			return -1, fmt.Errorf("%w: %d not in the complete view of %d", ErrPartitioned, msg.T, u)
		}
		next, err := ep.router(msg.S, msg.T, msg.Prev, view, sc)
		if err != nil {
			return -1, err
		}
		// Check the step against the a-priori adjacency — the one
		// structural fact the member holds about u.
		if _, ok := slices.BinarySearch(row, next); !ok {
			return -1, fmt.Errorf("cluster: algorithm chose %d, not a neighbour of %d", next, u)
		}
		msg.Prev = u
		msg.Route = append(msg.Route, next)
		msg.Budget--
		p, ok := m.asn.pos(next)
		if !ok {
			return -1, fmt.Errorf("%w: %d", ErrUnknownVertex, next)
		}
		if p < m.lo || p >= m.lo+len(m.rows) {
			return m.asn.shardAt(p), nil
		}
		u, row = next, m.rows[p-m.lo]
	}
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
			m.met.Add(mForwardRetries, 1)
			d := m.cfg.RetryBase * time.Duration(retry.Backoff(att-1))
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
		err := m.tr.Forward(addr, msg, m.cfg.PeerDeadline)
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
	if _, owned := m.ownAdj(head); !owned {
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
		m.met.Add(mRequests, 1)
		if rep.Delivered {
			m.met.Add(mDelivered, 1)
			m.met.Observe(mHops, int64(rep.Hops))
			m.met.Observe(mCrossingsPerReq, int64(rep.Crossings))
		} else {
			m.met.Add(mFailed, 1)
			if c, ok := failedCounter(rep.ErrKind); ok {
				m.met.Add(c, 1)
			}
		}
		m.met.Observe(mLatency, rep.LatencyNS)
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
	m.mu.Lock()
	stopped, ready := m.stopped, m.ready
	m.mu.Unlock()
	if stopped {
		return finish(m.replyFor(msg, false, ErrStopped)), nil
	}
	if !ready {
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
		m.met.Add(mCrossings, 1)
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
