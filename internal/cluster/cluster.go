// Package cluster turns klocald into a distributed routing system: N
// member processes each own a contiguous shard of the graph's vertex
// space, discover each other through gossip membership (a seed list
// plus periodic HELLO heartbeats carrying incarnation numbers), learn
// the rest of the topology through link-state announcements exchanged
// over a real transport (HTTP/TCP in production, an in-process loopback
// in tests and the klocalcheck differential), and forward routing
// requests hop by hop between shards. Every forwarding decision binds
// the paper's k-local algorithm to the G_k(u) view assembled from
// *received* announcements — never to the global topology — so the
// locality contract the repo enforces in-process (klocalvet) now holds
// across an actual network boundary.
//
// The discovery protocol reuses the netsim LSA semantics over HTTP:
// announcements carry per-origin sequence numbers (epoch'd by the
// member's incarnation so a rejoining process supersedes everything it
// announced before the crash), receipt is acknowledged per peer,
// unacknowledged transfers retransmit on fault.Plan's bounded
// exponential backoff, a peer that exhausts the budget — or stops
// HELLOing — is declared dead and its vertices tombstoned, and a
// tombstone that reaches its live origin is refuted with a fresh
// higher-sequence announcement. See DESIGN.md §11 for the protocol and
// the forwarding state machine.
package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/fault"
	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// Assignment is the static vertex→shard map every member agrees on: the
// sorted vertex label space split into contiguous ranges. It is pure
// addressing (which process answers for which label) and carries no
// topology; adjacency is only ever learned through announcements.
type Assignment struct {
	vertices []graph.Vertex // sorted, unique
	shards   int
	// contiguous reports labels exactly vertices[0], vertices[0]+1, …:
	// then a label's position is its offset from vertices[0], with no
	// search. Every generated graph and every .csr file is contiguous.
	contiguous bool
}

// NewAssignment splits the given vertex labels into shards contiguous
// ranges. The slice is copied and sorted; a label given twice is an
// error, since two shards would then both own it.
func NewAssignment(vertices []graph.Vertex, shards int) (Assignment, error) {
	if len(vertices) == 0 {
		return Assignment{}, fmt.Errorf("cluster: empty vertex space")
	}
	if shards < 1 || shards > len(vertices) {
		return Assignment{}, fmt.Errorf("cluster: %d shards over %d vertices", shards, len(vertices))
	}
	vs := slices.Clone(vertices)
	slices.Sort(vs)
	contiguous := true
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			return Assignment{}, fmt.Errorf("cluster: vertex %d listed twice", vs[i])
		}
		contiguous = contiguous && vs[i] == vs[i-1]+1
	}
	return Assignment{vertices: vs, shards: shards, contiguous: contiguous}, nil
}

// Shards returns the number of shards.
func (a Assignment) Shards() int { return a.shards }

// N returns the number of vertices in the addressed space.
func (a Assignment) N() int { return len(a.vertices) }

// pos returns v's position in the sorted label space, or false when v
// is outside it: an offset on a contiguous space, a binary search on
// any other. Every hop looks its next vertex up here; the offset spares
// it the search.
//
//klocal:hotpath
func (a Assignment) pos(v graph.Vertex) (int, bool) {
	if a.contiguous {
		i := int(v - a.vertices[0])
		return i, i >= 0 && i < len(a.vertices)
	}
	return slices.BinarySearch(a.vertices, v)
}

// shardAt returns the shard owning position i. Shard s owns positions
// [⌊s·n/S⌋, ⌊(s+1)·n/S⌋), so it is the largest s with s·n < (i+1)·S.
//
//klocal:hotpath
func (a Assignment) shardAt(i int) int {
	return ((i+1)*a.shards - 1) / len(a.vertices)
}

// Owner returns the shard index owning v, or false when v is outside
// the addressed vertex space.
func (a Assignment) Owner(v graph.Vertex) (int, bool) {
	i, ok := a.pos(v)
	if !ok {
		return 0, false
	}
	return a.shardAt(i), true
}

// span returns shard i's position range [lo, hi).
func (a Assignment) span(i int) (lo, hi int) {
	n := len(a.vertices)
	return i * n / a.shards, (i + 1) * n / a.shards
}

// Owned returns shard i's vertex range (a fresh slice).
func (a Assignment) Owned(i int) []graph.Vertex {
	lo, hi := a.span(i)
	return slices.Clone(a.vertices[lo:hi])
}

// Config tunes a cluster member.
type Config struct {
	// Index is this member's shard index in [0, Shards).
	Index int
	// Shards is the cluster size the assignment was split into.
	Shards int
	// K is the locality parameter views are assembled at.
	K int
	// Alg is the routing algorithm, bound once over the discovered views.
	Alg route.Algorithm
	// Incarnation orders a member's lifetimes: a rejoining process must
	// present a strictly higher incarnation to refute its own death.
	// It also epochs LSA sequence numbers, so fresh announcements
	// supersede both tombstones and pre-crash state.
	Incarnation int64
	// SelfAddr is the address this member advertises to peers.
	SelfAddr string
	// Seeds are bootstrap peer addresses (any non-empty subset of the
	// cluster; gossip spreads the rest).
	Seeds []string

	// HelloInterval paces the heartbeat/gossip loop (default 250ms).
	HelloInterval time.Duration
	// DeadAfter is how long a peer may go silent before it is declared
	// dead (default 8 × HelloInterval).
	DeadAfter time.Duration
	// RetryTick paces the retransmission loop (default 25ms).
	RetryTick time.Duration
	// RetryBase scales fault.Plan's exponential backoff schedule into
	// wall time: attempt i retries after RetryBase·Backoff(i)
	// (default 50ms).
	RetryBase time.Duration

	// PeerDeadline bounds one RPC to a peer — a HELLO, an LSA batch, or
	// one hop handoff attempt (default 1s).
	PeerDeadline time.Duration
	// ForwardAttempts bounds handoff retries per hop before the
	// forwarder fails the request with a typed error (default 3).
	ForwardAttempts int
	// HopBudget bounds the walk length of one request
	// (default 8·n + 16).
	HopBudget int
	// RequestTimeout bounds one entry request end to end; past it the
	// entry member answers with ErrRequestTimeout (default 10s).
	RequestTimeout time.Duration
}

func (c Config) withDefaults(n int) Config {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 8 * c.HelloInterval
	}
	if c.RetryTick <= 0 {
		c.RetryTick = 25 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.PeerDeadline <= 0 {
		c.PeerDeadline = time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 3
	}
	if c.HopBudget <= 0 {
		c.HopBudget = 8*n + 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Incarnation <= 0 {
		c.Incarnation = 1
	}
	return c
}

// record is a member's stored copy of one origin vertex's announcement.
// The adjacency slice is immutable once stored.
type record struct {
	seq  uint64
	adj  []graph.Vertex
	tomb bool
}

// newer applies the netsim supersession rule: higher sequence wins, and
// at equal sequence a tombstone beats the live announcement it condemns.
func (r *record) newer(seq uint64, tomb bool) bool {
	return r == nil || seq > r.seq || (seq == r.seq && tomb && !r.tomb)
}

// The member metrics, registered once for every member's shard. The
// per-class fault counters (lsa_retransmits, tombstones_issued/refuted,
// hello_timeouts, deaths_declared) ride along with the routing ones.
var (
	memberMetrics      = &metrics.Schema{}
	mRequests          = memberMetrics.Counter("requests")
	mDelivered         = memberMetrics.Counter("delivered")
	mFailed            = memberMetrics.Counter("failed")
	mFailedKind        = registerFailedKinds()
	mForwards          = memberMetrics.Counter("forwards")
	mCrossings         = memberMetrics.Counter("crossings")
	mForwardRetries    = memberMetrics.Counter("forward_retries")
	mRepliesSent       = memberMetrics.Counter("replies_sent")
	mRepliesLost       = memberMetrics.Counter("replies_lost")
	mHelloSent         = memberMetrics.Counter("hello_sent")
	mHelloRecv         = memberMetrics.Counter("hello_recv")
	mHelloTimeouts     = memberMetrics.Counter("hello_timeouts")
	mLSASent           = memberMetrics.Counter("lsa_sent")
	mLSARecv           = memberMetrics.Counter("lsa_recv")
	mLSARetransmits    = memberMetrics.Counter("lsa_retransmits")
	mDeathsDeclared    = memberMetrics.Counter("deaths_declared")
	mTombstonesIssued  = memberMetrics.Counter("tombstones_issued")
	mTombstonesRefuted = memberMetrics.Counter("tombstones_refuted")
	mHops              = memberMetrics.Histogram("hops")
	mCrossingsPerReq   = memberMetrics.Histogram("crossings_per_req")
	mLatency           = memberMetrics.Histogram("latency_ns")
)

// registerFailedKinds registers failed_<kind> for every kind errKindOf
// returns, in errKinds order, routing last.
func registerFailedKinds() (ids [len(errKinds) + 1]metrics.CounterID) {
	for i, k := range errKinds {
		ids[i] = memberMetrics.Counter("failed_" + k.name)
	}
	ids[len(errKinds)] = memberMetrics.Counter("failed_" + routingKind)
	return ids
}

// retry is the retransmission schedule of reliable transfers (LSAs and
// hop handoffs): the zero fault.Plan, whose attempt budget and backoff
// cap are fault.DefaultMaxAttempts and fault.DefaultBackoffCap.
var retry fault.Plan

// Member is one cluster participant: it owns a shard of vertices,
// gossips membership, floods and stores link-state, assembles G_k(u)
// views for its owned vertices, and forwards routing requests hop by
// hop. All exported methods are safe for concurrent use.
type Member struct {
	cfg Config
	asn Assignment
	// rows holds the owned vertices' sorted adjacency, indexed by label
	// position minus lo, the shard's first position.
	rows [][]graph.Vertex
	lo   int
	tr   Transport
	met  *metrics.Shard
	lim  bodyLimits
	// scratch holds GOMAXPROCS walker scratches; a walk segment takes one
	// for its owned hops only, never across an RPC.
	scratch chan *prep.Scratch

	mu       sync.Mutex
	inc      int64
	seqCount uint64
	peers    map[int]*peerState
	seeds    []string // unresolved bootstrap addresses
	store    map[graph.Vertex]*record
	storeGen int64
	changed  []graph.Vertex // origins whose records changed since the last commit
	ready    bool           // latched: every addressed vertex has a record
	stopped  bool

	cur  atomic.Pointer[epoch] // nil while the union is stale
	down []atomic.Bool         // per shard: known dead (read lock-free per hop)

	waitMu  sync.Mutex
	waiters map[uint64]chan *RouteReply
	nextID  atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewMember builds a member for shard cfg.Index of asn. adj must be the
// adjacency of exactly the owned vertices — the "every node knows its
// own label and the labels of its neighbours" a-priori knowledge; the
// rest of the topology is only ever learned through announcements.
func NewMember(cfg Config, asn Assignment, adj map[graph.Vertex][]graph.Vertex, tr Transport) (*Member, error) {
	if asn.shards == 0 {
		return nil, fmt.Errorf("cluster: zero-value assignment")
	}
	if cfg.Index < 0 || cfg.Index >= asn.shards {
		return nil, fmt.Errorf("cluster: shard index %d out of range [0, %d)", cfg.Index, asn.shards)
	}
	if cfg.Shards != 0 && cfg.Shards != asn.shards {
		return nil, fmt.Errorf("cluster: config says %d shards, assignment has %d", cfg.Shards, asn.shards)
	}
	cfg.Shards = asn.shards
	if cfg.Alg.Over == nil {
		return nil, fmt.Errorf("cluster: config needs a routing algorithm")
	}
	if tr == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	cfg = cfg.withDefaults(asn.N())
	owned := asn.Owned(cfg.Index)
	if len(adj) != len(owned) {
		return nil, fmt.Errorf("cluster: adjacency covers %d vertices, shard %d owns %d", len(adj), cfg.Index, len(owned))
	}
	lo, _ := asn.span(cfg.Index)
	m := &Member{
		cfg:     cfg,
		asn:     asn,
		rows:    make([][]graph.Vertex, len(owned)),
		lo:      lo,
		tr:      tr,
		met:     metrics.NewShard(memberMetrics),
		lim:     newBodyLimits(asn.N(), cfg.HopBudget),
		inc:     cfg.Incarnation,
		peers:   make(map[int]*peerState),
		store:   make(map[graph.Vertex]*record),
		down:    make([]atomic.Bool, asn.shards),
		waiters: make(map[uint64]chan *RouteReply),
		stop:    make(chan struct{}),
		scratch: make(chan *prep.Scratch, runtime.GOMAXPROCS(0)),
	}
	for i := 0; i < cap(m.scratch); i++ {
		m.scratch <- prep.NewScratch()
	}
	for _, s := range cfg.Seeds {
		if s != "" && s != cfg.SelfAddr {
			m.seeds = append(m.seeds, s)
		}
	}
	for i, v := range owned {
		nbrs, ok := adj[v]
		if !ok {
			return nil, fmt.Errorf("cluster: adjacency missing owned vertex %d", v)
		}
		m.rows[i] = slices.Clone(nbrs)
		slices.Sort(m.rows[i])
	}
	m.mu.Lock()
	for _, v := range owned {
		m.reOriginateLocked(v)
	}
	m.commitLocked()
	m.checkReadyLocked()
	m.mu.Unlock()
	return m, nil
}

// ownAdj returns the a-priori adjacency of v, or false when this member
// does not own v.
//
//klocal:hotpath
func (m *Member) ownAdj(v graph.Vertex) ([]graph.Vertex, bool) {
	p, ok := m.asn.pos(v)
	p -= m.lo
	if !ok || p < 0 || p >= len(m.rows) {
		return nil, false
	}
	return m.rows[p], true
}

// seqEpochLocked folds the incarnation into the high half of the
// sequence space so every announcement of a later lifetime supersedes
// every announcement (and tombstone) of an earlier one.
func (m *Member) seqEpochLocked() uint64 {
	return uint64(m.inc&0x7fffffff) << 32
}

// Index returns this member's shard index.
func (m *Member) Index() int { return m.cfg.Index }

// Addr returns the advertised address.
func (m *Member) Addr() string { return m.cfg.SelfAddr }

// Assignment returns the shared vertex→shard map.
func (m *Member) Assignment() Assignment { return m.asn }

// Start launches the background heartbeat and retransmission loops.
// Members used with Converge (deterministic in-process settling) need
// not be started.
func (m *Member) Start() {
	m.startOnce.Do(func() {
		m.wg.Add(2)
		go m.helloLoop()
		go m.retryLoop()
	})
}

// Stop shuts the member down: loops exit, in-flight forwards resolve or
// are dropped, and pending waiters are released. Idempotent.
func (m *Member) Stop() {
	m.stopOnce.Do(func() {
		m.mu.Lock()
		m.stopped = true
		m.mu.Unlock()
		close(m.stop)
	})
	m.wg.Wait()
}

func (m *Member) helloLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.HelloInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.helloPass()
		}
	}
}

func (m *Member) retryLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.RetryTick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.retryPass(now)
		}
	}
}

// checkReadyLocked latches readiness once every addressed vertex has a
// record (live or tombstoned) — the member has heard from (or about)
// the whole vertex space and can assemble views for any destination.
func (m *Member) checkReadyLocked() {
	if !m.ready && len(m.store) == m.asn.N() {
		m.ready = true
	}
}

// Ready reports whether discovery has covered the whole vertex space.
func (m *Member) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ready && !m.stopped
}

// Stats is a point-in-time summary of the member's protocol state.
type Stats struct {
	Index       int   `json:"index"`
	Shards      int   `json:"shards"`
	Incarnation int64 `json:"incarnation"`
	Ready       bool  `json:"ready"`
	PeersAlive  int   `json:"peers_alive"`
	PeersDead   int   `json:"peers_dead"`
	Tombstones  int   `json:"tombstones"`
	Coverage    int   `json:"coverage"`
	Vertices    int   `json:"vertices"`
	StoreGen    int64 `json:"store_gen"`
	PendingLSAs int   `json:"pending_lsas"`
}

// Stats snapshots the protocol state (for /cluster/status, the e2e
// tests, and the smoke driver).
func (m *Member) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Index:       m.cfg.Index,
		Shards:      m.asn.shards,
		Incarnation: m.inc,
		Ready:       m.ready && !m.stopped,
		Coverage:    len(m.store),
		Vertices:    m.asn.N(),
		StoreGen:    m.storeGen,
	}
	for _, p := range m.peers {
		if p.dead {
			st.PeersDead++
		} else {
			st.PeersAlive++
		}
		st.PendingLSAs += len(p.pending)
	}
	for _, rec := range m.store {
		if rec.tomb {
			st.Tombstones++
		}
	}
	return st
}

// pendingCount reports outstanding reliable transfers (Converge's
// quiescence criterion).
func (m *Member) pendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, p := range m.peers {
		n += len(p.pending)
	}
	return n
}

// report attaches the derived gauges to a snapshot of the counters —
// the shared body of /metrics and FinalReport.
func (m *Member) report(name string) *metrics.Report {
	st := m.Stats()
	rep := m.met.Snapshot()
	rep.Name = name
	if reqs := rep.Counter("requests"); reqs > 0 {
		rep.Put("delivery_rate", float64(rep.Counter("delivered"))/float64(reqs))
	}
	rep.Put("peers_alive", float64(st.PeersAlive))
	rep.Put("peers_dead", float64(st.PeersDead))
	rep.Put("tombstones", float64(st.Tombstones))
	rep.Put("coverage", float64(st.Coverage))
	rep.Put("store_gen", float64(st.StoreGen))
	ready := 0.0
	if st.Ready {
		ready = 1
	}
	rep.Put("ready", ready)
	return rep
}

// Metrics renders the live cumulative report.
func (m *Member) Metrics() *metrics.Report {
	return m.report(fmt.Sprintf("klocald member %d/%d", m.cfg.Index, m.asn.shards))
}

// FinalReport is the shutdown summary, fault counters included.
func (m *Member) FinalReport() *metrics.Report {
	return m.report(fmt.Sprintf("klocald member %d/%d final", m.cfg.Index, m.asn.shards))
}
