// Package serve turns the batch traffic engine into a standing routing
// service: klocald loads a topology, binds one engine per algorithm
// over shared preprocessed snapshots, and serves routing queries over
// HTTP with live observability.
//
// The pieces:
//
//   - deployment: one immutable generation of the service — a graph, a
//     Snapshot and a running Engine per configured algorithm, and a
//     monotonically increasing revision. The current deployment hangs
//     behind an atomic.Pointer; request handlers acquire it with a
//     refcount so PUT /graph can swap atomically and drain the old
//     generation without a stop-the-world.
//
//   - live metrics: /metrics reads engine shards via
//     metrics.MergeShardsLive — per-shard-consistent copies taken under
//     the shard locks — so scraping never quiesces a route in flight.
//     Metrics of drained (retired) deployments fold into a cumulative
//     shard under the server mutex in the same critical section that
//     unregisters them, so totals never double- or under-count a
//     generation.
//
//   - admission control: handlers route through Engine.Do on their own
//     goroutine, on one of the engine's W lanes, with a configurable
//     budget for the wait for a lane; when every lane stays busy past
//     it, the request is rejected with 429 instead of piling onto an
//     unbounded backlog.
//
// See DESIGN.md §9 for the swap protocol and the concurrency contract.
package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/prep"
)

// Config tunes the daemon.
type Config struct {
	// Graph is the initial topology.
	Graph GraphSpec
	// Algorithms lists the Table 2 algorithms to bind (alg1|alg1b|alg2|
	// alg3); empty means ["alg2"]. The first entry is the default for
	// requests that do not name one.
	Algorithms []string
	// K is the locality parameter (0 = each algorithm's own threshold).
	K int
	// Workers is each algorithm's lane count: at most this many of its
	// requests route at once (0 = GOMAXPROCS).
	Workers int
	// MaxSteps bounds each walk (0 = the simulator's default budget).
	MaxSteps int
	// AdmissionBudget is how long a request may wait for a lane before
	// it is rejected with 429 (0 = wait indefinitely). It bounds the
	// whole wait before routing starts.
	AdmissionBudget time.Duration
	// CacheCapacity bounds each snapshot's preprocessed-view cache
	// (0 = unbounded).
	CacheCapacity int
	// Prewarm computes every vertex's view at deployment build time.
	Prewarm bool
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"alg2"}
	}
	return c
}

// algEngine is one algorithm's snapshot and engine inside a
// deployment.
type algEngine struct {
	name string
	snap *engine.Snapshot
	eng  *engine.Engine
}

// deployment is one immutable generation of the service. Handlers hold
// it via acquire/release; a swap drains the refcount before closing the
// engines, so no request ever observes a half-built or half-torn-down
// generation.
type deployment struct {
	rev int64
	// epoch is the topology version this generation serves: bumped by
	// every PUT /graph rebuild and every PATCH /graph delta batch, and
	// echoed in route replies so clients can correlate a walk with the
	// exact topology that produced it. rev counts deployment objects;
	// epoch counts topology versions (today they advance together, but
	// the contract is per-topology, not per-build).
	epoch int64
	spec  GraphSpec
	// st is the topology every engine routes over; g is the same value
	// when the spec built a materialized *graph.Graph, and nil for
	// store-backed (kind "file") generations, where hop traces and exact
	// distances are degraded away.
	st    bigraph.Store
	g     *graph.Graph
	built time.Time
	algs  []string
	byAlg map[string]*algEngine

	// state packs the refcount and the draining flag into one atomic
	// word: refs<<1 | drainBit. A single CAS'd word closes the window
	// the old two-atomics scheme left open between reading the refcount
	// and reading the flag: an acquire either lands strictly before the
	// drain bit (the drainer then sees its reference and waits for it)
	// or observes the bit and never registers — so a drain can neither
	// return early with a request in flight nor be signalled twice by a
	// release racing a concurrent swap's retire.
	state   atomic.Int64
	drained chan struct{}
	once    sync.Once
}

const drainBit = int64(1)
const refUnit = int64(2)

// acquire registers an in-flight request. It fails when the deployment
// is already draining (the caller should reload the current pointer),
// and a failed acquire is never visible to the drainer.
func (d *deployment) acquire() bool {
	for {
		s := d.state.Load()
		if s&drainBit != 0 {
			return false
		}
		if d.state.CompareAndSwap(s, s+refUnit) {
			return true
		}
	}
}

// release unregisters an in-flight request, signalling the drainer when
// it was the last one out. Releasing more than acquired is a refcount
// corruption that would otherwise let a drain return with requests
// still running — fail loudly instead.
func (d *deployment) release() {
	s := d.state.Add(-refUnit)
	if s < 0 {
		panic("serve: deployment released more times than acquired")
	}
	if s == drainBit {
		d.signal()
	}
}

func (d *deployment) signal() { d.once.Do(func() { close(d.drained) }) }

// drain marks the deployment draining and blocks until every in-flight
// request has released it.
func (d *deployment) drain() {
	for {
		s := d.state.Load()
		if s&drainBit != 0 {
			break // already draining (idempotent under swapMu)
		}
		if d.state.CompareAndSwap(s, s|drainBit) {
			if s == 0 {
				d.signal()
			}
			break
		}
	}
	<-d.drained
}

// engineFor resolves the algorithm parameter ("" = the default, i.e.
// the first configured algorithm).
func (d *deployment) engineFor(name string) (*algEngine, error) {
	if name == "" {
		name = d.algs[0]
	}
	ae, ok := d.byAlg[name]
	if !ok {
		return nil, fmt.Errorf("algorithm %q not deployed (have %v)", name, d.algs)
	}
	return ae, nil
}

// Server is the routing daemon: an HTTP handler set over a swappable
// deployment.
type Server struct {
	cfg     Config
	nextRev atomic.Int64
	// epoch is the monotonically increasing topology version; see
	// deployment.epoch.
	epoch   atomic.Int64
	cur     atomic.Pointer[deployment]
	stopped atomic.Bool

	// mu guards the deployment registry and the retired metrics fold.
	// Invariant: every deployment is either in live (still counting) or
	// folded into retired (closed) — never both, never neither — so
	// /metrics totals reconcile exactly with the responses served.
	mu      sync.Mutex
	live    map[int64]*deployment
	retired map[string]*metrics.Shard
	// swapMu serializes PUT /graph (builds are expensive; concurrent
	// swaps would drain each other's generations out from under them).
	swapMu sync.Mutex
	// scrape state for interval rate gauges.
	lastScrape     map[string]scrapePoint
	httpRequests   atomic.Int64
	httpRejections atomic.Int64
}

// scrapePoint remembers one algorithm's counters at the previous
// /metrics scrape, for delta-based rate gauges.
type scrapePoint struct {
	at    time.Time
	rev   int64
	cache prep.CacheStats
	reqs  int64
}

// New builds a server and its initial deployment (including prewarm
// when configured) — the daemon is ready to serve when New returns.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		live:       make(map[int64]*deployment),
		retired:    make(map[string]*metrics.Shard),
		lastScrape: make(map[string]scrapePoint),
	}
	for _, name := range cfg.Algorithms {
		s.retired[name] = &metrics.Shard{} // empty until a generation retires
	}
	d, err := s.buildDeployment(cfg.Graph)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.live[d.rev] = d
	s.mu.Unlock()
	s.cur.Store(d)
	return s, nil
}

// buildDeployment constructs a full generation for spec: the graph and
// one snapshot + engine per configured algorithm.
func (s *Server) buildDeployment(spec GraphSpec) (*deployment, error) {
	st, err := spec.BuildStore()
	if err != nil {
		return nil, err
	}
	g, _ := st.(*graph.Graph) // nil for store-backed (file) topologies
	ok := false
	defer func() {
		if !ok {
			closeStore(st) // builds can fail per-algorithm; don't leak the mapping
		}
	}()
	d := &deployment{
		rev:     s.nextRev.Add(1),
		epoch:   s.epoch.Add(1),
		spec:    spec.withDefaults(),
		st:      st,
		g:       g,
		built:   time.Now(),
		byAlg:   make(map[string]*algEngine),
		drained: make(chan struct{}),
	}
	for _, name := range s.cfg.Algorithms {
		alg, err := AlgorithmByName(name)
		if err != nil {
			return nil, err
		}
		opts := engine.SnapshotOptions{Cache: prep.CacheOptions{Capacity: s.cfg.CacheCapacity}}
		if s.cfg.Prewarm {
			opts.Prewarm = -1
		}
		snap, err := engine.NewSnapshotStore(st, s.cfg.K, alg, opts)
		if err != nil {
			return nil, err
		}
		eng := engine.New(snap, engine.Config{Workers: s.cfg.Workers, MaxSteps: s.cfg.MaxSteps})
		d.algs = append(d.algs, name)
		d.byAlg[name] = &algEngine{name: name, snap: snap, eng: eng}
	}
	ok = true
	return d, nil
}

// closeStore releases a deployment's topology backing (the mmap of a
// file-backed CSR); materialized graphs are not closers and are left to
// the garbage collector.
func closeStore(st bigraph.Store) {
	if c, ok := st.(io.Closer); ok {
		_ = c.Close()
	}
}

// current returns the live deployment with a reference held, retrying
// across a concurrent swap. Callers must release it.
func (s *Server) current() (*deployment, error) {
	for {
		if s.stopped.Load() {
			return nil, fmt.Errorf("server stopping")
		}
		d := s.cur.Load()
		if d == nil {
			return nil, fmt.Errorf("no deployment")
		}
		if d.acquire() {
			return d, nil
		}
	}
}

// Swap builds a deployment for spec, atomically publishes it, drains
// the previous generation's in-flight requests, closes its engines, and
// folds their final metrics into the cumulative totals. Requests keep
// flowing throughout: they land on whichever generation they acquired.
func (s *Server) Swap(spec GraphSpec) (*deployment, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.stopped.Load() {
		return nil, fmt.Errorf("server stopping")
	}
	nd, err := s.buildDeployment(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.live[nd.rev] = nd
	s.mu.Unlock()
	old := s.cur.Swap(nd)
	if old != nil {
		s.retire(old)
	}
	return nd, nil
}

// retire drains old, closes its engines, and folds their metrics into
// the cumulative shard in the same critical section that removes the
// deployment from the live registry — the no-double-count invariant.
func (s *Server) retire(old *deployment) {
	old.drain()
	for _, ae := range old.byAlg {
		ae.eng.Close()
	}
	closeStore(old.st) // safe: the drain means no request can touch it again
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ae := range old.byAlg {
		s.retired[name] = metrics.MergeShards(s.retired[name], ae.eng.LiveShard())
	}
	delete(s.live, old.rev)
}

// Drain stops intake (readyz flips to 503, handlers refuse new work),
// drains the current deployment, and closes its engines. Call it after
// the HTTP listener has shut down; FinalReports is valid afterwards.
// Idempotent.
func (s *Server) Drain() {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if old := s.cur.Swap(nil); old != nil {
		s.retire(old)
	}
}

// Ready reports whether the daemon is accepting routing work.
func (s *Server) Ready() bool {
	return !s.stopped.Load() && s.cur.Load() != nil
}

// FinalReports renders one final merged report per algorithm — the
// shutdown summary klocald prints after Drain. Each report carries the
// cumulative counters across every generation served.
func (s *Server) FinalReports() []*metrics.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*metrics.Report
	for _, name := range s.cfg.withDefaults().Algorithms {
		sh := s.retired[name]
		// Any still-live generation (Drain not called) merges in live.
		for _, d := range s.live {
			if ae, ok := d.byAlg[name]; ok {
				sh = metrics.MergeShards(sh, ae.eng.LiveShard())
			}
		}
		rep := sh.Snapshot()
		rep.Name = fmt.Sprintf("klocald %s final", name)
		if reqs := rep.Counter("requests"); reqs > 0 {
			rep.Put("delivery_rate", float64(rep.Counter("delivered"))/float64(reqs))
		}
		if h, ok := rep.Histograms["stretch_milli"]; ok {
			rep.Put("stretch_max", float64(h.Max)/1000)
			rep.Put("stretch_p99", h.P99/1000)
			rep.Put("stretch_mean", h.Mean/1000)
		}
		out = append(out, rep)
	}
	return out
}
