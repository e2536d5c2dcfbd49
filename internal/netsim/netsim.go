// Package netsim is a concurrent, message-passing network simulator: one
// goroutine per node, channels as links. It realizes the paper's ad hoc
// network setting operationally — each node starts knowing only its own
// adjacency ("every node knows its own label as well as the labels of its
// neighbours") and *discovers* its k-neighbourhood G_k(u) by running a
// TTL-scoped link-state flooding protocol. Data messages are then routed
// hop by hop using a k-local routing algorithm bound to each node's
// discovered view, never to the global topology.
//
// The link layer is unreliable: a fault.Injector may drop, duplicate, or
// delay any transmission and crash any node. Discovery tolerates this
// with sequence-numbered announcements, per-neighbour acknowledgments,
// bounded retransmission with exponential backoff, and round-based
// settling in place of in-flight counting (which deadlocks the moment a
// single message is lost). Neighbours that stop acknowledging are
// declared dead, their announcements withdrawn via tombstones, so every
// surviving node's view converges to G_k(u) of the live topology.
package netsim

import (
	"errors"
	"fmt"
	"sort"
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
// origin's announcement.
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

// ackMsg acknowledges link-level receipt of one announcement version.
type ackMsg struct {
	origin graph.Vertex
	seq    uint64
	tomb   bool
}

// dataMsg is a routed message. It carries its own trace; the struct is
// owned by exactly one node at any time.
type dataMsg struct {
	id      uint64
	s, t    graph.Vertex
	prev    graph.Vertex
	route   []graph.Vertex
	budget  int
	retries int
	events  []fault.Event
	done    chan<- deliverResult
}

type deliverResult struct {
	route   []graph.Vertex
	retries int
	events  []fault.Event
	err     error
}

// message is the sum type carried on node inboxes. from is the
// link-level sender; attempt is the transmission attempt that delivered
// it (acknowledgments inherit it so every re-ack gets an independent
// fault roll); delay is the residual fault-injected reorder.
type message struct {
	from    graph.Vertex
	lsa     *lsa
	ack     *ackMsg
	data    *dataMsg
	attempt int
	delay   int
}

// lsaRec is a node's stored copy of an origin's announcement: version,
// adjacency, the residual ttl it arrived with (kept so the record can be
// re-offered to a resurrected neighbour), and whether it is a tombstone.
type lsaRec struct {
	seq  uint64
	adj  []graph.Vertex
	ttl  int
	tomb bool
}

// xfer is one reliable transfer awaiting acknowledgment: the forwarded
// announcement, how many times it has been transmitted, and the round at
// which the next retransmission is due.
type xfer struct {
	l        *lsa
	attempts int
	due      int
}

// node is one network participant.
type node struct {
	id    graph.Vertex
	inbox chan message

	mu        sync.Mutex
	neighbors []graph.Vertex                          // sorted, known a priori
	ownSeq    uint64                                  // own announcement version (stable storage)
	learned   map[graph.Vertex]*lsaRec                // origin -> latest record
	pending   map[graph.Vertex]map[graph.Vertex]*xfer // neighbour -> origin -> unacked transfer
	deadNbrs  map[graph.Vertex]bool                   // neighbours declared dead
	router    route.Func                              // built after discovery
	pre       *prep.Preprocessor                      // views over the discovered union, built after discovery

	// sc is the scratch the node's goroutine fetches its view and
	// decides on.
	sc prep.Scratch
}

// quiescer tracks undelivered messages. Unlike a WaitGroup it tolerates
// drops (a dropped message is simply never added) and wakes waiters on
// shutdown.
type quiescer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	closed bool
}

func newQuiescer() *quiescer {
	q := &quiescer{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *quiescer) add(d int) {
	q.mu.Lock()
	q.n += d
	if q.n <= 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// wait blocks until no messages are in flight or the network shuts down.
func (q *quiescer) wait() {
	q.mu.Lock()
	for q.n > 0 && !q.closed {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

func (q *quiescer) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Network is a running simulation. Create with New (perfect links) or
// NewFaulty (seeded fault plan), then Start, Discover, Send any number
// of times, and Stop.
type Network struct {
	g    *graph.Graph
	k    int
	alg  route.Algorithm
	plan fault.Plan
	inj  fault.Injector

	nodes map[graph.Vertex]*node
	order []graph.Vertex // sorted vertices, for deterministic passes
	stop  chan struct{}
	wg    sync.WaitGroup

	// pending tracks enqueued-but-unprocessed messages for loss-tolerant
	// quiescence detection.
	pending *quiescer
	// round is the logical discovery round, advanced by the settling
	// loop; fault schedules (blackouts, crash windows) key off it.
	round atomic.Int64
	msgID atomic.Uint64

	liveMu  sync.RWMutex
	dynDown map[graph.Vertex]bool // nodes crashed via the Crash API

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
// routing algorithm, and perfect links. Nothing runs until Start.
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
		g:       g,
		k:       k,
		alg:     alg,
		plan:    plan,
		inj:     inj,
		nodes:   make(map[graph.Vertex]*node, g.N()),
		stop:    make(chan struct{}),
		pending: newQuiescer(),
		dynDown: make(map[graph.Vertex]bool),
	}
	nw.order = append(nw.order, g.Vertices()...)
	sort.Slice(nw.order, func(i, j int) bool { return nw.order[i] < nw.order[j] })
	for _, v := range g.Vertices() {
		// Inbox capacity: during one discovery round a node receives at
		// most one copy of each origin's LSA per incident link plus the
		// matching acknowledgments; duplication at most doubles that.
		// The bound keeps senders from ever blocking on a busy receiver,
		// which would deadlock symmetric floods. Headroom is reserved
		// for AddEdge.
		capacity := 4*g.N()*(g.Deg(v)+2) + 32
		nw.nodes[v] = &node{
			id:        v,
			neighbors: g.Adj(v),
			inbox:     make(chan message, capacity),
			learned:   make(map[graph.Vertex]*lsaRec),
			pending:   make(map[graph.Vertex]map[graph.Vertex]*xfer),
			deadNbrs:  make(map[graph.Vertex]bool),
		}
	}
	return nw
}

// Start launches one goroutine per node.
func (nw *Network) Start() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.started || nw.stopped {
		return
	}
	nw.started = true
	for _, nd := range nw.nodes {
		nw.wg.Add(1)
		go nw.run(nd)
	}
}

// Stop shuts every node down and waits for the goroutines to exit.
func (nw *Network) Stop() {
	nw.mu.Lock()
	if nw.stopped {
		nw.mu.Unlock()
		return
	}
	nw.stopped = true
	started := nw.started
	nw.mu.Unlock()
	close(nw.stop)
	nw.pending.close()
	if started {
		nw.wg.Wait()
	}
}

func (nw *Network) isStopped() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.stopped
}

// isDown reports whether v is crashed at the given round, by plan or by
// the Crash API.
func (nw *Network) isDown(v graph.Vertex, round int) bool {
	nw.liveMu.RLock()
	dyn := nw.dynDown[v]
	nw.liveMu.RUnlock()
	return dyn || nw.inj.Down(v, round)
}

// Crash takes node v down immediately: it stops processing and the link
// layer drops traffic addressed to it. Discovery state is left as-is, so
// routing continues on stale views until discovery is invalidated and
// rerun — exactly the degradation window the fault experiments measure.
func (nw *Network) Crash(v graph.Vertex) error {
	if _, ok := nw.nodes[v]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	nw.liveMu.Lock()
	nw.dynDown[v] = true
	nw.liveMu.Unlock()
	return nil
}

// Restart brings a node crashed via Crash back up. Its stable storage
// (sequence numbers, learned records) is intact; rerun discovery to
// reintegrate it into routing.
func (nw *Network) Restart(v graph.Vertex) error {
	if _, ok := nw.nodes[v]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	nw.liveMu.Lock()
	delete(nw.dynDown, v)
	nw.liveMu.Unlock()
	return nil
}

// run is the node main loop.
func (nw *Network) run(nd *node) {
	defer nw.wg.Done()
	for {
		select {
		case <-nw.stop:
			return
		case msg := <-nd.inbox:
			if msg.delay > 0 {
				// Fault-injected reorder: put the message back behind
				// whatever else is queued; if the inbox is momentarily
				// full, deliver now rather than block on ourselves.
				msg.delay--
				select {
				case nd.inbox <- msg:
				default:
					nw.dispatch(nd, msg)
				}
				continue
			}
			nw.dispatch(nd, msg)
		}
	}
}

// dispatch handles one delivered message and retires it from the
// quiescence count.
func (nw *Network) dispatch(nd *node, msg message) {
	if nw.isDown(nd.id, int(nw.round.Load())) {
		// A crashed node silently eats its traffic. Data messages must
		// still resolve their waiting sender.
		if msg.data != nil {
			msg.data.done <- deliverResult{
				route:   msg.data.route,
				retries: msg.data.retries,
				events:  msg.data.events,
				err:     fmt.Errorf("netsim: node %d crashed while holding the message: %w", nd.id, ErrNodeDown),
			}
		}
		nw.pending.add(-1)
		return
	}
	switch {
	case msg.lsa != nil:
		nw.handleLSA(nd, msg.from, msg.lsa, msg.attempt)
	case msg.ack != nil:
		nw.handleAck(nd, msg.from, msg.ack)
	case msg.data != nil:
		nw.handleData(nd, msg.data)
	}
	nw.pending.add(-1)
}

// enqueue places a message on the target inbox, keeping the quiescence
// count consistent even when the network is shutting down.
func (nw *Network) enqueue(to graph.Vertex, msg message) {
	nw.pending.add(1)
	select {
	case nw.nodes[to].inbox <- msg:
	case <-nw.stop:
		nw.pending.add(-1)
	}
}

// transmit pushes one protocol message across the link from→to through
// the fault layer. It reports whether any copy was enqueued, and the
// injector's ruling.
func (nw *Network) transmit(from, to graph.Vertex, msg message, class fault.Class, key uint64, attempt int) (bool, fault.Decision) {
	round := int(nw.round.Load())
	if nw.isDown(to, round) {
		nw.dropped.Add(1)
		return false, fault.Decision{Drop: true}
	}
	d := nw.inj.Deliver(from, to, class, key, attempt, round)
	if d.Drop {
		nw.dropped.Add(1)
		return false, d
	}
	msg.attempt = attempt
	if d.Delay > 0 {
		nw.delayed.Add(1)
		msg.delay = d.Delay
	}
	copies := 1
	if d.Duplicate && class != fault.ClassData {
		copies = 2
		nw.duplicated.Add(1)
	}
	for i := 0; i < copies; i++ {
		nw.enqueue(to, msg)
	}
	return true, d
}

// liveNbrsLocked returns the node's neighbours minus the ones it has
// declared dead. Caller holds nd.mu.
func liveNbrsLocked(nd *node) []graph.Vertex {
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

// sendLSA registers a reliable transfer of l to neighbour `to` and
// transmits the first attempt.
func (nw *Network) sendLSA(nd *node, to graph.Vertex, l *lsa) {
	nd.mu.Lock()
	m := nd.pending[to]
	if m == nil {
		m = make(map[graph.Vertex]*xfer)
		nd.pending[to] = m
	}
	m[l.origin] = &xfer{l: l, attempts: 1, due: int(nw.round.Load()) + nw.plan.Backoff(1)}
	nd.mu.Unlock()
	nw.lsaTransmissions.Add(1)
	nw.transmit(nd.id, to, message{from: nd.id, lsa: l}, fault.ClassLSA, lsaKey(l), 1)
}

// handleLSA acknowledges, records, and forwards a link-state
// announcement. Each version of each origin's announcement is forwarded
// at most once (flooding suppression by sequence number).
func (nw *Network) handleLSA(nd *node, from graph.Vertex, l *lsa, attempt int) {
	if from != nd.id {
		// Link-level acknowledgment. Acks are not themselves acked: a
		// lost ack just provokes a retransmission, which is re-acked —
		// with the retransmission's attempt number, so each re-ack rolls
		// independent fault dice.
		nw.ackTransmissions.Add(1)
		a := &ackMsg{origin: l.origin, seq: l.seq, tomb: l.tomb}
		nw.transmit(nd.id, from, message{from: nd.id, ack: a}, fault.ClassAck, lsaKey(l), attempt)
	}
	if l.tomb && l.origin == nd.id && from != nd.id {
		// Our own obituary: someone exhausted its retransmissions to us
		// (we were down, or a blackout ate the link). Refute it with a
		// fresh, higher-sequence announcement — but only once per
		// obituary version, or dueling floods would never settle.
		nd.mu.Lock()
		refute := l.seq >= nd.ownSeq
		nd.mu.Unlock()
		if refute {
			nw.reOriginate(nd, nw.k)
		}
		return
	}
	resurrect := graph.NoVertex
	nd.mu.Lock()
	if from != nd.id && nd.deadNbrs[from] {
		delete(nd.deadNbrs, from)
		resurrect = from
	}
	rec := nd.learned[l.origin]
	// A same-version copy with a higher TTL is also an upgrade: under
	// loss, the shortest-path copy can lag behind a longer-path copy
	// (its transmission dropped and rescheduled by backoff), and if the
	// low-TTL copy silenced forwarding permanently the flood would stop
	// short of the nodes the origin is entitled to reach. Re-forwarding
	// on TTL upgrades restores shortest-path reach; TTLs rise
	// monotonically, so each node forwards each version at most k times.
	newer := rec == nil || l.seq > rec.seq ||
		(l.seq == rec.seq && l.tomb && !rec.tomb) ||
		(l.seq == rec.seq && l.tomb == rec.tomb && l.ttl > rec.ttl)
	var fwd *lsa
	if newer {
		adj := make([]graph.Vertex, len(l.adj))
		copy(adj, l.adj)
		nd.learned[l.origin] = &lsaRec{seq: l.seq, adj: adj, ttl: l.ttl, tomb: l.tomb}
		if l.ttl > 0 {
			fwd = &lsa{origin: l.origin, seq: l.seq, adj: l.adj, ttl: l.ttl - 1, tomb: l.tomb}
		}
	}
	var nbrs []graph.Vertex
	if fwd != nil {
		nbrs = append(nbrs, liveNbrsLocked(nd)...)
	}
	nd.mu.Unlock()
	if resurrect != graph.NoVertex {
		nw.repairNeighbor(nd, resurrect)
	}
	for _, nb := range nbrs {
		nw.sendLSA(nd, nb, fwd)
	}
}

// handleAck retires the matching reliable transfer.
func (nw *Network) handleAck(nd *node, from graph.Vertex, a *ackMsg) {
	resurrect := graph.NoVertex
	nd.mu.Lock()
	if nd.deadNbrs[from] {
		delete(nd.deadNbrs, from)
		resurrect = from
	}
	if m := nd.pending[from]; m != nil {
		if x := m[a.origin]; x != nil {
			if a.seq > x.l.seq || (a.seq == x.l.seq && (a.tomb == x.l.tomb || a.tomb)) {
				delete(m, a.origin)
			}
		}
	}
	nd.mu.Unlock()
	if resurrect != graph.NoVertex {
		nw.repairNeighbor(nd, resurrect)
	}
}

// repairNeighbor reintegrates a neighbour that was declared dead but has
// come back: restore it to our announcement, and re-offer every record
// we have forwarded so it recovers floods it missed while down.
func (nw *Network) repairNeighbor(nd *node, v graph.Vertex) {
	nw.reOriginate(nd, nw.k)
	nd.mu.Lock()
	var repairs []*lsa
	for origin, rec := range nd.learned {
		if origin == nd.id || origin == v || rec.tomb || rec.ttl <= 0 {
			continue
		}
		repairs = append(repairs, &lsa{origin: origin, seq: rec.seq, adj: rec.adj, ttl: rec.ttl - 1})
	}
	nd.mu.Unlock()
	for _, l := range repairs {
		nw.sendLSA(nd, v, l)
	}
}

// reOriginate floods a fresh announcement of this node's live adjacency
// with the given TTL. It doubles as the discovery seed (ttl k−1, the
// paper's flooding radius; routing it through the node's own inbox keeps
// all protocol logic in one place). Fault-path re-originations use ttl k
// instead: a tombstone flooded by a neighbour of the condemned node with
// TTL k−1 can reach nodes at distance k from it, so the announcement that
// refutes or supersedes the obituary must reach at least as far. The
// extra hop is harmless — view construction trims at distance k anyway.
func (nw *Network) reOriginate(nd *node, ttl int) {
	nd.mu.Lock()
	nd.ownSeq++
	l := &lsa{origin: nd.id, seq: nd.ownSeq, adj: liveNbrsLocked(nd), ttl: ttl}
	nd.mu.Unlock()
	nw.lsaTransmissions.Add(1)
	nw.enqueue(nd.id, message{from: nd.id, lsa: l})
}

// declareDead marks a neighbour that exhausted its retransmission budget
// as crashed: withdraw it from our announcement and flood a tombstone so
// every node that learned of it forgets it.
func (nw *Network) declareDead(nd *node, v graph.Vertex) {
	nd.mu.Lock()
	if nd.deadNbrs[v] {
		nd.mu.Unlock()
		return
	}
	nd.deadNbrs[v] = true
	delete(nd.pending, v)
	var tombSeq uint64
	if rec := nd.learned[v]; rec != nil {
		tombSeq = rec.seq
	}
	nd.mu.Unlock()
	nw.deadDeclared.Add(1)
	tomb := &lsa{origin: v, seq: tombSeq, ttl: nw.k - 1, tomb: true}
	nw.lsaTransmissions.Add(1)
	nw.enqueue(nd.id, message{from: nd.id, lsa: tomb})
	nw.reOriginate(nd, nw.k)
	// Probe the condemned neighbour with its own obituary. A truly dead
	// node ignores it (the probe transfer exhausts quietly); a live one
	// that was condemned by bad luck refutes it with a fresh
	// announcement, which resurrects it here and heals the false
	// positive everywhere.
	nw.sendLSA(nd, v, tomb)
}

// retransmitPass, run only while the network is quiescent, retries every
// transfer whose backoff expired and declares neighbours dead once their
// budget is spent. It reports whether it generated any traffic.
func (nw *Network) retransmitPass(round int) bool {
	active := false
	maxAttempts := nw.plan.Attempts()
	for _, v := range nw.order {
		nd := nw.nodes[v]
		if nw.isDown(v, round) {
			continue
		}
		type retry struct {
			to      graph.Vertex
			l       *lsa
			attempt int
		}
		var retries []retry
		var deaths []graph.Vertex
		nd.mu.Lock()
		for to, m := range nd.pending {
			dead := false
			for origin, x := range m {
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
					dead = true
					break
				}
				x.due = round + nw.plan.Backoff(x.attempts)
				retries = append(retries, retry{to: to, l: x.l, attempt: x.attempts})
			}
			if dead {
				deaths = append(deaths, to)
			}
		}
		nd.mu.Unlock()
		for _, r := range retries {
			nw.lsaRetransmissions.Add(1)
			nw.transmit(nd.id, r.to, message{from: nd.id, lsa: r.l}, fault.ClassLSA, lsaKey(r.l), r.attempt)
			active = true
		}
		for _, to := range deaths {
			nw.declareDead(nd, to)
			active = true
		}
	}
	return active
}

// anyPendingXfers reports whether any live node still awaits an
// acknowledgment.
func (nw *Network) anyPendingXfers(round int) bool {
	for _, v := range nw.order {
		nd := nw.nodes[v]
		if nw.isDown(v, round) {
			continue
		}
		nd.mu.Lock()
		n := 0
		for _, m := range nd.pending {
			n += len(m)
		}
		nd.mu.Unlock()
		if n > 0 {
			return true
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
// Settling is round-based and loss-tolerant: the coordinator waits for
// the network to go idle, retries transfers whose acknowledgment never
// arrived (with exponential backoff), and finishes only when no transfer
// is outstanding and no fault-schedule transition lies ahead. Discover
// is idempotent. It blocks until the flood settles.
func (nw *Network) Discover() error {
	nw.mu.Lock()
	if !nw.started {
		nw.mu.Unlock()
		return errors.New("netsim: network not started")
	}
	if nw.stopped {
		nw.mu.Unlock()
		return ErrStopped
	}
	if nw.discovered {
		nw.mu.Unlock()
		return nil
	}
	nw.mu.Unlock()

	// Round budget: the full retry schedule for one transfer, the fault
	// schedule horizon, and slack for death/tombstone cascades.
	maxAttempts := nw.plan.Attempts()
	schedule := 0
	for a := 1; a <= maxAttempts; a++ {
		schedule += nw.plan.Backoff(a)
	}
	maxRounds := 4*(schedule+nw.plan.LastScheduledRound()) + 16

	nw.round.Store(0)
	for _, v := range nw.order {
		if nw.isDown(v, 0) {
			continue
		}
		nw.reOriginate(nw.nodes[v], nw.k-1)
	}

	round := 0
	for {
		nw.pending.wait()
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

	finalRound := round
	for _, v := range nw.order {
		nd := nw.nodes[v]
		if nw.isDown(v, finalRound) {
			continue
		}
		nd.mu.Lock()
		nd.pre = prep.NewPreprocessor(union(nd), nw.k, nw.alg.Policy, prep.CacheOptions{})
		nd.router = nw.alg.Over(nd.pre)
		nd.mu.Unlock()
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
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.pre == nil {
		return nil
	}
	return nbhd.Extract(nd.pre.Store(), v, nw.k).G
}

// neighborsSnapshot returns the current link list under the node lock.
func (nd *node) neighborsSnapshot() []graph.Vertex {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.neighbors
}

// handleData makes one forwarding decision and passes the message on.
func (nw *Network) handleData(nd *node, m *dataMsg) {
	if nd.id == m.t {
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events}
		return
	}
	if m.budget <= 0 {
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events, err: ErrHopBudget}
		return
	}
	nd.mu.Lock()
	router, pre := nd.router, nd.pre
	nd.mu.Unlock()
	if router == nil {
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events, err: ErrNotDiscovered}
		return
	}
	view := pre.At(nd.id, &nd.sc)
	if raw := view.C.Raw; raw.Complete && !raw.Contains(m.t) {
		// The whole component is inside the view and t is not in it: a
		// topology fault, not a routing failure.
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events,
			err: fmt.Errorf("netsim: node %d sees its whole component without %d: %w", nd.id, m.t, ErrPartitioned)}
		return
	}
	next, err := router(m.s, m.t, m.prev, view, &nd.sc)
	if err != nil {
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events, err: fmt.Errorf("at node %d: %w", nd.id, err)}
		return
	}
	legal := false
	for _, nb := range nd.neighborsSnapshot() {
		if nb == next {
			legal = true
			break
		}
	}
	if !legal {
		m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events, err: fmt.Errorf("netsim: node %d chose non-neighbour %d", nd.id, next)}
		return
	}
	m.prev = nd.id
	m.route = append(m.route, next)
	m.budget--
	nw.forwardData(nd, next, m)
}

// forwardData pushes a data message one hop with hop-budgeted
// retransmission: each retry spends a unit of the hop budget, a crashed
// next hop surfaces as ErrNodeDown (the link layer's failure detector —
// no acknowledgment ever comes back), and a link that eats the whole
// budget surfaces as ErrLinkDown.
func (nw *Network) forwardData(nd *node, next graph.Vertex, m *dataMsg) {
	hop := len(m.route) - 2 // index of the forwarding node in the route
	nw.dataForwards.Add(1)
	round := int(nw.round.Load())
	maxAttempts := nw.plan.Attempts()
	for attempt := 1; ; attempt++ {
		if nw.isDown(next, round) {
			m.events = append(m.events, fault.Event{Kind: "node-down", From: nd.id, To: next, Hop: hop, Attempt: attempt})
			m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events,
				err: fmt.Errorf("netsim: next hop %d from node %d: %w", next, nd.id, ErrNodeDown)}
			return
		}
		d := nw.inj.Deliver(nd.id, next, fault.ClassData, m.id, attempt, round)
		if !d.Drop {
			if d.Delay > 0 {
				nw.delayed.Add(1)
				m.events = append(m.events, fault.Event{Kind: "delay", From: nd.id, To: next, Hop: hop, Attempt: attempt})
			}
			nw.enqueue(next, message{from: nd.id, data: m, delay: d.Delay})
			return
		}
		nw.dropped.Add(1)
		m.events = append(m.events, fault.Event{Kind: "drop", From: nd.id, To: next, Hop: hop, Attempt: attempt})
		m.retries++
		nw.dataRetries.Add(1)
		m.budget--
		if m.budget <= 0 {
			m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events, err: ErrHopBudget}
			return
		}
		if attempt >= maxAttempts {
			m.done <- deliverResult{route: m.route, retries: m.retries, events: m.events,
				err: fmt.Errorf("netsim: link %d->%d: %w", nd.id, next, ErrLinkDown)}
			return
		}
		m.events = append(m.events, fault.Event{Kind: "retransmit", From: nd.id, To: next, Hop: hop, Attempt: attempt + 1})
	}
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

// Send routes one message from s to t through the running network and
// returns the traversed route (s first, t last). The hop budget is
// 4·n·m — far beyond any legal deterministic walk — so loops surface as
// ErrHopBudget, while topology faults surface as ErrPartitioned or
// ErrNodeDown.
func (nw *Network) Send(s, t graph.Vertex) ([]graph.Vertex, error) {
	res := nw.SendDetailed(s, t)
	return res.Route, res.Err
}

// SendDetailed is Send with the full fault-event trace.
func (nw *Network) SendDetailed(s, t graph.Vertex) SendResult {
	nw.mu.Lock()
	switch {
	case nw.stopped:
		nw.mu.Unlock()
		return SendResult{Err: ErrStopped}
	case !nw.discovered:
		nw.mu.Unlock()
		return SendResult{Err: ErrNotDiscovered}
	}
	nw.mu.Unlock()
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
	done := make(chan deliverResult, 1)
	msg := &dataMsg{
		id:     nw.msgID.Add(1),
		s:      s,
		t:      t,
		prev:   graph.NoVertex,
		route:  []graph.Vertex{s},
		budget: 4 * (nw.g.N() + 1) * (nw.g.M() + 1),
		done:   done,
	}
	nw.enqueue(s, message{from: s, data: msg})
	select {
	case res := <-done:
		return SendResult{Route: res.route, Retries: res.retries, Events: res.events, Err: res.err}
	case <-nw.stop:
		return SendResult{Err: ErrStopped}
	}
}

// Stats reports the protocol costs accumulated so far: link-state
// transmissions (the price of k-hop discovery, growing with k and the
// density — the trade-off behind the paper's "each node can periodically
// acquire and update information about its neighbourhood"), the
// fault-tolerance overhead (acknowledgments and retransmissions), data
// forwards, and the injector's toll.
type Stats struct {
	// LSATransmissions counts first-attempt announcement sends — with a
	// zero fault plan this matches the perfect-channel flood exactly.
	LSATransmissions int64
	// LSARetransmissions counts retry attempts for unacknowledged
	// transfers.
	LSARetransmissions int64
	// AckTransmissions counts discovery acknowledgments.
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
