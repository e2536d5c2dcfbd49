// Package netsim is a deterministic message-passing network simulator.
// It realizes the paper's ad hoc network setting operationally — each
// node starts knowing only its own adjacency ("every node knows its own
// label as well as the labels of its neighbours") and *discovers* its
// k-neighbourhood G_k(u) by running a TTL-scoped link-state flooding
// protocol. Data messages are then routed hop by hop using a k-local
// routing algorithm bound to each node's discovered view, never to the
// global topology.
//
// The link layer is unreliable: a fault.Injector may drop, duplicate, or
// delay any transmission and crash any node. Discovery tolerates this
// with sequence-numbered announcements, per-neighbour acknowledgments,
// bounded retransmission with exponential backoff, and round-based
// settling in place of in-flight counting (which deadlocks the moment a
// single message is lost). Neighbours that stop acknowledging are
// declared dead, their announcements withdrawn via tombstones, so every
// surviving node's view converges to G_k(u) of the live topology.
//
// The simulator starts no goroutine. Discover delivers every
// transmission on the calling goroutine from one FIFO queue, in send
// order, and visits nodes, neighbours and origins in label order, so
// every protocol count is a function of the topology and the fault plan
// alone. Send walks a message hop by hop on the caller's goroutine; any
// number of Sends may run at once.
package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"klocal/internal/fault"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// Errors returned by Network operations.
var (
	// ErrNotDiscovered means Send was called before Discover.
	ErrNotDiscovered = errors.New("netsim: neighbourhood discovery has not run")
	// ErrStopped means the network was already stopped.
	ErrStopped = errors.New("netsim: network is stopped")
	// ErrUnknownNode means an endpoint is not part of the network.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrHopBudget means a data message exceeded its hop budget (a
	// routing loop at the chosen locality).
	ErrHopBudget = errors.New("netsim: hop budget exhausted (routing loop)")
	// ErrPartitioned means the destination is provably unreachable: it
	// lies outside a node's complete k-neighbourhood, so no path exists
	// in the live topology.
	ErrPartitioned = errors.New("netsim: destination unreachable (network partitioned)")
	// ErrNodeDown means a crashed node blocks the route: the next hop
	// stopped acknowledging, or an endpoint is dead.
	ErrNodeDown = errors.New("netsim: node is down")
	// ErrLinkDown means a link swallowed every retransmission attempt
	// even though the peer is nominally alive.
	ErrLinkDown = errors.New("netsim: link failed after retransmission budget")
	// ErrDiscoveryStalled means discovery failed to settle within its
	// round budget (pathological fault schedule).
	ErrDiscoveryStalled = errors.New("netsim: discovery did not settle within the round budget")
)

// lsa is a link-state announcement: the adjacency of origin at sequence
// seq, flooded with a hop budget so it reaches exactly the nodes within
// distance k−1. A tombstone (tomb=true, empty adj) withdraws a crashed
// origin's announcement. An announcement is never modified once sent,
// so the copies in flight and the record a node keeps share it.
type lsa struct {
	origin graph.Vertex
	seq    uint64
	adj    []graph.Vertex
	ttl    int
	tomb   bool
}

// lsaKey folds an announcement's identity into the fault injector's
// opaque message key.
func lsaKey(l *lsa) uint64 {
	k := uint64(l.origin)<<33 | (l.seq&0xffffffff)<<1
	if l.tomb {
		k |= 1
	}
	return k
}

// message is one discovery transmission in flight on link from→to: an
// announcement, or (ack set) the acknowledgment of one. attempt is the
// transmission attempt that delivered it (an ack inherits it, so every
// re-ack gets an independent fault roll); delay is the residual
// fault-injected reorder, in trips to the back of the queue.
type message struct {
	from, to graph.Vertex
	l        *lsa
	ack      bool
	attempt  int
	delay    int
}

// xfer is one reliable transfer awaiting acknowledgment: the forwarded
// announcement, how many times it has been transmitted, and the round at
// which the next retransmission is due.
type xfer struct {
	l        *lsa
	attempts int
	due      int
}

// routing is what discovery publishes at a node: the views over its
// discovered union and the decision bound to them.
type routing struct {
	pre    *prep.Preprocessor
	decide route.Func
}

// node is one network participant. Its protocol state is touched only
// by Discover and InvalidateDiscovery; Sends read neighbors, down and
// the published routing.
type node struct {
	id        graph.Vertex
	neighbors []graph.Vertex                          // sorted, known a priori
	ownSeq    uint64                                  // own announcement version (stable storage)
	learned   map[graph.Vertex]*lsa                   // origin -> latest announcement
	pending   map[graph.Vertex]map[graph.Vertex]*xfer // neighbour -> origin -> unacked transfer
	deadNbrs  map[graph.Vertex]bool                   // neighbours declared dead

	down    atomic.Bool             // crashed via the Crash API
	routing atomic.Pointer[routing] // nil until discovery publishes it
}

// Network is a simulated network. Create with New (perfect links) or
// NewFaulty (seeded fault plan), then Start, Discover, Send any number
// of times, and Stop.
type Network struct {
	g    *graph.Graph
	k    int
	alg  route.Algorithm
	plan fault.Plan
	inj  fault.Injector

	nodes map[graph.Vertex]*node
	order []*node // by label, for deterministic passes

	// queue holds discovery's undelivered transmissions in send order;
	// head is the next to deliver. An empty queue is quiescence.
	queue []message
	head  int
	// round is the logical discovery round, advanced by the settling
	// loop; fault schedules (blackouts, crash windows) key off it.
	round atomic.Int64
	msgID atomic.Uint64

	lsaTransmissions   atomic.Int64
	lsaRetransmissions atomic.Int64
	ackTransmissions   atomic.Int64
	dataForwards       atomic.Int64
	dataRetries        atomic.Int64
	dropped            atomic.Int64
	duplicated         atomic.Int64
	delayed            atomic.Int64
	deadDeclared       atomic.Int64
	discoveryRounds    atomic.Int64

	mu         sync.Mutex
	started    bool
	stopped    bool
	discovered bool
}

// New prepares a network over topology g with locality k, the given
// routing algorithm, and perfect links.
func New(g *graph.Graph, k int, alg route.Algorithm) *Network {
	return NewFaulty(g, k, alg, fault.Plan{})
}

// NewFaulty prepares a network whose link layer and node liveness follow
// the given fault plan. A zero plan behaves exactly like New.
func NewFaulty(g *graph.Graph, k int, alg route.Algorithm, plan fault.Plan) *Network {
	return NewWithInjector(g, k, alg, plan, fault.Compile(plan))
}

// NewWithInjector prepares a network driven by a custom fault injector;
// plan still supplies the retransmission tuning. Intended for tests that
// need surgical fault placement (e.g. dropping one specific LSA).
func NewWithInjector(g *graph.Graph, k int, alg route.Algorithm, plan fault.Plan, inj fault.Injector) *Network {
	nw := &Network{
		g:     g,
		k:     k,
		alg:   alg,
		plan:  plan,
		inj:   inj,
		nodes: make(map[graph.Vertex]*node, g.N()),
	}
	for _, v := range g.Vertices() { // label order
		nd := &node{id: v, neighbors: g.Adj(v)}
		nd.reset()
		nw.nodes[v] = nd
		nw.order = append(nw.order, nd)
	}
	return nw
}

// reset clears the node's discovered state. ownSeq is stable storage:
// it survives so re-announcements supersede anything from an earlier
// discovery.
func (nd *node) reset() {
	nd.learned = make(map[graph.Vertex]*lsa)
	nd.pending = make(map[graph.Vertex]map[graph.Vertex]*xfer)
	nd.deadNbrs = make(map[graph.Vertex]bool)
	nd.routing.Store(nil)
}

// Start readies the network for Discover. It starts nothing: discovery
// and every Send run on their callers' goroutines.
func (nw *Network) Start() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.stopped {
		nw.started = true
	}
}

// Stop shuts the network down: every later call fails with ErrStopped.
// A Send already walking finishes its walk.
func (nw *Network) Stop() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.stopped = true
}

func (nw *Network) isStopped() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.stopped
}

// isDown reports whether v is crashed at the given round, by plan or by
// the Crash API.
func (nw *Network) isDown(v graph.Vertex, round int) bool {
	return nw.nodes[v].down.Load() || nw.inj.Down(v, round)
}

// Crash takes node v down immediately: the link layer drops traffic
// addressed to it and a message it holds is lost. Discovery state is
// left as-is, so routing continues on stale views until discovery is
// invalidated and rerun — exactly the degradation window the fault
// experiments measure.
func (nw *Network) Crash(v graph.Vertex) error {
	nd, ok := nw.nodes[v]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	nd.down.Store(true)
	return nil
}

// Restart brings a node crashed via Crash back up. Its stable storage
// (sequence numbers, learned records) is intact; rerun discovery to
// reintegrate it into routing.
func (nw *Network) Restart(v graph.Vertex) error {
	nd, ok := nw.nodes[v]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	nd.down.Store(false)
	return nil
}

// drain delivers queued transmissions in send order until the queue is
// empty. A delayed message goes back to the tail; a crashed receiver
// eats its traffic.
func (nw *Network) drain(round int) {
	for nw.head < len(nw.queue) {
		m := nw.queue[nw.head]
		nw.head++
		if m.delay > 0 {
			m.delay--
			nw.queue = append(nw.queue, m)
			continue
		}
		if nw.isDown(m.to, round) {
			continue
		}
		if m.ack {
			nw.handleAck(nw.nodes[m.to], m)
		} else {
			nw.handleLSA(nw.nodes[m.to], m)
		}
	}
	nw.queue, nw.head = nw.queue[:0], 0
}

// transmit pushes one protocol message across its link through the
// fault layer onto the tail of the queue.
func (nw *Network) transmit(m message, class fault.Class) {
	round := int(nw.round.Load())
	if nw.isDown(m.to, round) {
		nw.dropped.Add(1)
		return
	}
	d := nw.inj.Deliver(m.from, m.to, class, lsaKey(m.l), m.attempt, round)
	if d.Drop {
		nw.dropped.Add(1)
		return
	}
	if d.Delay > 0 {
		nw.delayed.Add(1)
		m.delay = d.Delay
	}
	nw.queue = append(nw.queue, m)
	if d.Duplicate {
		nw.duplicated.Add(1)
		nw.queue = append(nw.queue, m)
	}
}

// originate queues an announcement at its own node: a seed, a
// re-announcement or a tombstone enters the flood through the same
// handler as a received copy.
func (nw *Network) originate(nd *node, l *lsa) {
	nw.lsaTransmissions.Add(1)
	nw.queue = append(nw.queue, message{from: nd.id, to: nd.id, l: l})
}

// liveNeighbors returns the node's neighbours minus the ones it has
// declared dead, in label order.
func (nd *node) liveNeighbors() []graph.Vertex {
	if len(nd.deadNbrs) == 0 {
		return nd.neighbors
	}
	live := make([]graph.Vertex, 0, len(nd.neighbors))
	for _, nb := range nd.neighbors {
		if !nd.deadNbrs[nb] {
			live = append(live, nb)
		}
	}
	return live
}

// sortedKeys returns m's keys in label order.
func sortedKeys[V any](m map[graph.Vertex]V) []graph.Vertex {
	keys := make([]graph.Vertex, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	slices.SortFunc(keys, cmp.Compare[graph.Vertex])
	return keys
}

// sendLSA registers a reliable transfer of l to neighbour `to` and
// transmits the first attempt.
func (nw *Network) sendLSA(nd *node, to graph.Vertex, l *lsa) {
	m := nd.pending[to]
	if m == nil {
		m = make(map[graph.Vertex]*xfer)
		nd.pending[to] = m
	}
	m[l.origin] = &xfer{l: l, attempts: 1, due: int(nw.round.Load()) + nw.plan.Backoff(1)}
	nw.lsaTransmissions.Add(1)
	nw.transmit(message{from: nd.id, to: to, l: l, attempt: 1}, fault.ClassLSA)
}

// handleLSA acknowledges, records, and forwards a link-state
// announcement. Each version of each origin's announcement is forwarded
// at most once (flooding suppression by sequence number).
func (nw *Network) handleLSA(nd *node, m message) {
	l, from := m.l, m.from
	if from != nd.id {
		// Link-level acknowledgment. Acks are not themselves acked: a
		// lost ack just provokes a retransmission, which is re-acked —
		// with the retransmission's attempt number, so each re-ack rolls
		// independent fault dice.
		nw.ackTransmissions.Add(1)
		nw.transmit(message{from: nd.id, to: from, l: l, ack: true, attempt: m.attempt}, fault.ClassAck)
	}
	if l.tomb && l.origin == nd.id && from != nd.id {
		// Our own obituary: someone exhausted its retransmissions to us
		// (we were down, or a blackout ate the link). Refute it with a
		// fresh, higher-sequence announcement — but only once per
		// obituary version, or dueling floods would never settle.
		if l.seq >= nd.ownSeq {
			nw.reOriginate(nd, nw.k)
		}
		return
	}
	rec := nd.learned[l.origin]
	// A same-version copy with a higher TTL is also an upgrade: under
	// loss, the shortest-path copy can lag behind a longer-path copy
	// (its transmission dropped and rescheduled by backoff), and if the
	// low-TTL copy silenced forwarding permanently the flood would stop
	// short of the nodes the origin is entitled to reach. Re-forwarding
	// on TTL upgrades restores shortest-path reach; TTLs rise
	// monotonically, so each node forwards each version at most k times.
	// Without faults the queue delivers every origin's flood in
	// breadth-first order, so the first copy already has the highest TTL.
	newer := rec == nil || l.seq > rec.seq ||
		(l.seq == rec.seq && l.tomb && !rec.tomb) ||
		(l.seq == rec.seq && l.tomb == rec.tomb && l.ttl > rec.ttl)
	if newer {
		nd.learned[l.origin] = l
	}
	nw.repairNeighbor(nd, from)
	if newer && l.ttl > 0 {
		fwd := &lsa{origin: l.origin, seq: l.seq, adj: l.adj, ttl: l.ttl - 1, tomb: l.tomb}
		for _, nb := range nd.liveNeighbors() {
			nw.sendLSA(nd, nb, fwd)
		}
	}
}

// handleAck retires the matching reliable transfer.
func (nw *Network) handleAck(nd *node, m message) {
	from, a := m.from, m.l
	if x := nd.pending[from][a.origin]; x != nil {
		if a.seq > x.l.seq || (a.seq == x.l.seq && (a.tomb == x.l.tomb || a.tomb)) {
			delete(nd.pending[from], a.origin)
		}
	}
	nw.repairNeighbor(nd, from)
}

// repairNeighbor reintegrates v if nd declared it dead and has now heard
// from it: any message from a condemned neighbour resurrects it. Restore
// it to our announcement, and re-offer every record we have forwarded
// so it recovers floods it missed while down.
func (nw *Network) repairNeighbor(nd *node, v graph.Vertex) {
	if !nd.deadNbrs[v] {
		return
	}
	delete(nd.deadNbrs, v)
	nw.reOriginate(nd, nw.k)
	for _, origin := range sortedKeys(nd.learned) {
		rec := nd.learned[origin]
		if origin == nd.id || origin == v || rec.tomb || rec.ttl <= 0 {
			continue
		}
		nw.sendLSA(nd, v, &lsa{origin: origin, seq: rec.seq, adj: rec.adj, ttl: rec.ttl - 1})
	}
}

// reOriginate floods a fresh announcement of this node's live adjacency
// with the given TTL. It doubles as the discovery seed (ttl k−1, the
// paper's flooding radius). Fault-path re-originations use ttl k
// instead: a tombstone flooded by a neighbour of the condemned node with
// TTL k−1 can reach nodes at distance k from it, so the announcement that
// refutes or supersedes the obituary must reach at least as far. The
// extra hop is harmless — view construction trims at distance k anyway.
func (nw *Network) reOriginate(nd *node, ttl int) {
	nd.ownSeq++
	nw.originate(nd, &lsa{origin: nd.id, seq: nd.ownSeq, adj: nd.liveNeighbors(), ttl: ttl})
}

// declareDead marks a neighbour that exhausted its retransmission budget
// as crashed: withdraw it from our announcement and flood a tombstone so
// every node that learned of it forgets it.
func (nw *Network) declareDead(nd *node, v graph.Vertex) {
	if nd.deadNbrs[v] {
		return
	}
	nd.deadNbrs[v] = true
	delete(nd.pending, v)
	var tombSeq uint64
	if rec := nd.learned[v]; rec != nil {
		tombSeq = rec.seq
	}
	nw.deadDeclared.Add(1)
	tomb := &lsa{origin: v, seq: tombSeq, ttl: nw.k - 1, tomb: true}
	nw.originate(nd, tomb)
	nw.reOriginate(nd, nw.k)
	// Probe the condemned neighbour with its own obituary. A truly dead
	// node ignores it (the probe transfer exhausts quietly); a live one
	// that was condemned by bad luck refutes it with a fresh
	// announcement, which resurrects it here and heals the false
	// positive everywhere.
	nw.sendLSA(nd, v, tomb)
}

// retransmitPass, run only once the queue is drained, retries every
// transfer whose backoff expired and declares neighbours dead once their
// budget is spent. It reports whether it generated any traffic.
func (nw *Network) retransmitPass(round int) bool {
	active := false
	maxAttempts := nw.plan.Attempts()
	for _, nd := range nw.order {
		if nw.isDown(nd.id, round) {
			continue
		}
		for _, to := range sortedKeys(nd.pending) {
			m := nd.pending[to]
			for _, origin := range sortedKeys(m) {
				x := m[origin]
				if x.due > round {
					continue
				}
				x.attempts++
				if x.attempts > maxAttempts {
					if nd.deadNbrs[to] {
						// A probe to an already-condemned neighbour
						// exhausted: give up quietly.
						delete(m, origin)
						continue
					}
					nw.declareDead(nd, to)
					active = true
					break
				}
				x.due = round + nw.plan.Backoff(x.attempts)
				nw.lsaRetransmissions.Add(1)
				nw.transmit(message{from: nd.id, to: to, l: x.l, attempt: x.attempts}, fault.ClassLSA)
				active = true
			}
		}
	}
	return active
}

// anyPendingXfers reports whether any live node still awaits an
// acknowledgment.
func (nw *Network) anyPendingXfers(round int) bool {
	for _, nd := range nw.order {
		if nw.isDown(nd.id, round) {
			continue
		}
		for _, m := range nd.pending {
			if len(m) > 0 {
				return true
			}
		}
	}
	return false
}

// applyRestarts re-announces nodes whose scheduled crash window ends at
// this round. Their stable storage is intact; the fresh announcement
// (with a higher sequence number) overrides any tombstone flooded while
// they were down.
func (nw *Network) applyRestarts(round int) {
	for _, c := range nw.plan.Crashes {
		if c.To == round && !nw.isDown(c.Node, round) {
			if nd, ok := nw.nodes[c.Node]; ok {
				nw.reOriginate(nd, nw.k)
			}
		}
	}
}

// Discover floods every node's adjacency with TTL k−1, so each node
// learns the adjacency of every node within distance k−1 — exactly the
// edge set of G_k(u) — then builds its local view and routing function.
//
// Settling is round-based and loss-tolerant: each round drains the
// queue, then retries transfers whose acknowledgment never arrived (with
// exponential backoff), and discovery finishes only when no transfer is
// outstanding and no fault-schedule transition lies ahead. Discover is
// idempotent. It runs on the caller's goroutine and returns once the
// flood settles; it must not run concurrently with Send.
func (nw *Network) Discover() error {
	nw.mu.Lock()
	started, stopped, discovered := nw.started, nw.stopped, nw.discovered
	nw.mu.Unlock()
	switch {
	case stopped:
		return ErrStopped
	case !started:
		return errors.New("netsim: network not started")
	case discovered:
		return nil
	}

	// Round budget: the full retry schedule for one transfer, the fault
	// schedule horizon, and slack for death/tombstone cascades.
	maxAttempts := nw.plan.Attempts()
	schedule := 0
	for a := 1; a <= maxAttempts; a++ {
		schedule += nw.plan.Backoff(a)
	}
	maxRounds := 4*(schedule+nw.plan.LastScheduledRound()) + 16

	nw.round.Store(0)
	for _, nd := range nw.order {
		if !nw.isDown(nd.id, 0) {
			nw.reOriginate(nd, nw.k-1)
		}
	}

	round := 0
	for {
		nw.drain(round)
		if nw.isStopped() {
			return ErrStopped
		}
		active := nw.retransmitPass(round)
		if !active && !nw.anyPendingXfers(round) && round >= nw.plan.LastScheduledRound() {
			break
		}
		round++
		if round > maxRounds {
			return fmt.Errorf("%w (after %d rounds)", ErrDiscoveryStalled, round)
		}
		nw.round.Store(int64(round))
		nw.applyRestarts(round)
	}
	nw.discoveryRounds.Store(int64(round))

	for _, nd := range nw.order {
		if nw.isDown(nd.id, round) {
			continue
		}
		pre := prep.NewPreprocessor(union(nd), nw.k, nw.alg.Policy, prep.CacheOptions{})
		nd.routing.Store(&routing{pre: pre, decide: nw.alg.Over(pre)})
	}
	nw.mu.Lock()
	nw.discovered = true
	nw.mu.Unlock()
	return nil
}

// union assembles the node's discovered topology: the union of
// announced edges, tombstoned origins and edges into them excluded. With
// the flood TTL at k−1 it holds exactly G_k(u)'s edges; the node's
// preprocessor trims it to G_k(u) either way.
func union(nd *node) *graph.Graph {
	var edges []graph.Edge
	for origin, rec := range nd.learned {
		if rec.tomb {
			continue
		}
		for _, w := range rec.adj {
			if r := nd.learned[w]; r == nil || !r.tomb {
				edges = append(edges, graph.Edge{U: origin, V: w})
			}
		}
	}
	return graph.FromEdges(edges, nd.id)
}

// View returns the discovered k-neighbourhood of v (nil before
// discovery): G_k(v) of the union v routes over. Intended for tests and
// inspection.
func (nw *Network) View(v graph.Vertex) *graph.Graph {
	nd, ok := nw.nodes[v]
	if !ok {
		return nil
	}
	rt := nd.routing.Load()
	if rt == nil {
		return nil
	}
	return nbhd.Extract(rt.pre.Store(), v, nw.k).G
}

// SendResult is the detailed outcome of one routed message: the
// traversed route, link-layer retransmissions spent, and the fault
// events encountered along the way.
type SendResult struct {
	Route   []graph.Vertex
	Retries int
	Events  []fault.Event
	Err     error
}

// Send routes one message from s to t through the network and returns
// the traversed route (s first, t last). The hop budget is 4·n·m — far
// beyond any legal deterministic walk — so loops surface as
// ErrHopBudget, while topology faults surface as ErrPartitioned or
// ErrNodeDown.
func (nw *Network) Send(s, t graph.Vertex) ([]graph.Vertex, error) {
	res := nw.SendDetailed(s, t)
	return res.Route, res.Err
}

// SendDetailed is Send with the full fault-event trace. The message
// walks on the caller's goroutine: at each hop the holder decides on its
// discovered view, then pushes the message across the link under the
// fault plan. Sends may run concurrently with each other and with Crash,
// Restart, InvalidateDiscovery, Stats and Stop; each owns its scratch.
func (nw *Network) SendDetailed(s, t graph.Vertex) SendResult {
	nw.mu.Lock()
	stopped, discovered := nw.stopped, nw.discovered
	nw.mu.Unlock()
	switch {
	case stopped:
		return SendResult{Err: ErrStopped}
	case !discovered:
		return SendResult{Err: ErrNotDiscovered}
	}
	if _, ok := nw.nodes[s]; !ok {
		return SendResult{Err: fmt.Errorf("%w: %d", ErrUnknownNode, s)}
	}
	if _, ok := nw.nodes[t]; !ok {
		return SendResult{Err: fmt.Errorf("%w: %d", ErrUnknownNode, t)}
	}
	round := int(nw.round.Load())
	if nw.isDown(s, round) {
		return SendResult{Err: fmt.Errorf("netsim: origin %d: %w", s, ErrNodeDown)}
	}
	if nw.isDown(t, round) {
		return SendResult{Err: fmt.Errorf("netsim: destination %d: %w", t, ErrNodeDown)}
	}

	res := SendResult{Route: []graph.Vertex{s}}
	key := nw.msgID.Add(1)
	budget := 4 * (nw.g.N() + 1) * (nw.g.M() + 1)
	var sc prep.Scratch
	prev := graph.NoVertex
	for u := s; ; {
		nd := nw.nodes[u]
		if nw.isDown(u, round) {
			res.Err = fmt.Errorf("netsim: node %d crashed while holding the message: %w", u, ErrNodeDown)
			return res
		}
		if u == t {
			return res
		}
		if budget <= 0 {
			res.Err = ErrHopBudget
			return res
		}
		rt := nd.routing.Load()
		if rt == nil {
			res.Err = ErrNotDiscovered
			return res
		}
		view := rt.pre.At(u, &sc)
		if raw := view.C.Raw; raw.Complete && !raw.Contains(t) {
			// The whole component is inside the view and t is not in it: a
			// topology fault, not a routing failure.
			res.Err = fmt.Errorf("netsim: node %d sees its whole component without %d: %w", u, t, ErrPartitioned)
			return res
		}
		next, err := rt.decide(s, t, prev, view, &sc)
		if err != nil {
			res.Err = fmt.Errorf("at node %d: %w", u, err)
			return res
		}
		if !slices.Contains(nd.neighbors, next) {
			res.Err = fmt.Errorf("netsim: node %d chose non-neighbour %d", u, next)
			return res
		}
		res.Route = append(res.Route, next)
		budget--
		if res.Err = nw.forward(&res, u, next, key, round, &budget); res.Err != nil {
			return res
		}
		prev, u = u, next
	}
}

// forward pushes a data message one hop with hop-budgeted
// retransmission: each retry spends a unit of the hop budget, a crashed
// next hop surfaces as ErrNodeDown (the link layer's failure detector —
// no acknowledgment ever comes back), and a link that eats the whole
// budget surfaces as ErrLinkDown.
func (nw *Network) forward(res *SendResult, from, next graph.Vertex, key uint64, round int, budget *int) error {
	hop := len(res.Route) - 2 // index of the forwarding node in the route
	nw.dataForwards.Add(1)
	maxAttempts := nw.plan.Attempts()
	for attempt := 1; ; attempt++ {
		if nw.isDown(next, round) {
			res.Events = append(res.Events, fault.Event{Kind: "node-down", From: from, To: next, Hop: hop, Attempt: attempt})
			return fmt.Errorf("netsim: next hop %d from node %d: %w", next, from, ErrNodeDown)
		}
		d := nw.inj.Deliver(from, next, fault.ClassData, key, attempt, round)
		if !d.Drop {
			if d.Delay > 0 {
				nw.delayed.Add(1)
				res.Events = append(res.Events, fault.Event{Kind: "delay", From: from, To: next, Hop: hop, Attempt: attempt})
			}
			return nil
		}
		nw.dropped.Add(1)
		res.Events = append(res.Events, fault.Event{Kind: "drop", From: from, To: next, Hop: hop, Attempt: attempt})
		res.Retries++
		nw.dataRetries.Add(1)
		*budget--
		if *budget <= 0 {
			return ErrHopBudget
		}
		if attempt >= maxAttempts {
			return fmt.Errorf("netsim: link %d->%d: %w", from, next, ErrLinkDown)
		}
		res.Events = append(res.Events, fault.Event{Kind: "retransmit", From: from, To: next, Hop: hop, Attempt: attempt + 1})
	}
}

// Stats reports the protocol costs accumulated so far: link-state
// transmissions (the price of k-hop discovery, growing with k and the
// density — the trade-off behind the paper's "each node can periodically
// acquire and update information about its neighbourhood"), the
// fault-tolerance overhead (acknowledgments and retransmissions), data
// forwards, and the injector's toll. Every count is a function of the
// topology, the fault plan and the sequence of calls.
type Stats struct {
	// LSATransmissions counts first-attempt announcement sends. With a
	// zero fault plan a discovery sends exactly
	// n + Σ_o Σ_{u : dist(o,u) ≤ k−2} deg(u) of them.
	LSATransmissions int64
	// LSARetransmissions counts retry attempts for unacknowledged
	// transfers.
	LSARetransmissions int64
	// AckTransmissions counts discovery acknowledgments (with a zero
	// fault plan, one per received announcement: LSATransmissions − n).
	AckTransmissions int64
	// DataForwards counts per-hop forwarding decisions.
	DataForwards int64
	// DataRetries counts hop-budgeted data retransmissions.
	DataRetries int64
	// Dropped, Duplicated, and Delayed count the fault injector's
	// rulings across all classes.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	// DeadDeclared counts neighbour-death declarations.
	DeadDeclared int64
	// DiscoveryRounds is the number of settling rounds the last
	// discovery needed (0 on a perfect network).
	DiscoveryRounds int64
}

// ControlMessages is the total discovery traffic: announcements,
// retransmissions, and acknowledgments.
func (s Stats) ControlMessages() int64 {
	return s.LSATransmissions + s.LSARetransmissions + s.AckTransmissions
}

// Stats returns a snapshot of the protocol counters.
func (nw *Network) Stats() Stats {
	return Stats{
		LSATransmissions:   nw.lsaTransmissions.Load(),
		LSARetransmissions: nw.lsaRetransmissions.Load(),
		AckTransmissions:   nw.ackTransmissions.Load(),
		DataForwards:       nw.dataForwards.Load(),
		DataRetries:        nw.dataRetries.Load(),
		Dropped:            nw.dropped.Load(),
		Duplicated:         nw.duplicated.Load(),
		Delayed:            nw.delayed.Load(),
		DeadDeclared:       nw.deadDeclared.Load(),
		DiscoveryRounds:    nw.discoveryRounds.Load(),
	}
}
