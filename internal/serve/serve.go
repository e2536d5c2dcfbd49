// Package serve turns the batch traffic engine into a standing routing
// service: klocald loads a topology, keeps one engine per algorithm for
// the daemon's life, and serves routing queries over HTTP with live
// observability.
//
// The pieces:
//
//   - generations: PUT /graph builds a topology and one snapshot of it
//     per algorithm, PATCH /graph derives them from the current ones,
//     and both hand them to Engine.SwapSnapshot. Each engine numbers the
//     snapshots it routes on, so every reply names the epoch its walk
//     ran on; the generation record (spec, n, m, epoch) answers GET
//     /graph. A file-backed topology's mapping is closed once no lane
//     routes on it (Engine.Quiesce).
//
//   - live metrics: /metrics reads each engine's lane shards via
//     Engine.LiveReport — per-shard-consistent copies taken under the
//     shard locks — so scraping never quiesces a route in flight. The
//     shards outlive every swap, so the counters span every generation
//     served.
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
	"slices"
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

// generation records the topology the engines route on: what GET
// /graph reports, and what the next PATCH derives from or the next PUT
// closes.
type generation struct {
	// epoch is the engines' number for this generation's snapshots: 1 at
	// New, one more per PUT or PATCH /graph. Route replies name it.
	epoch int64
	spec  GraphSpec
	// st is the topology every engine routes over; g is the same value
	// when the spec built a materialized *graph.Graph, and nil for
	// store-backed (kind "file") generations, where hop traces and exact
	// distances are degraded away.
	st bigraph.Store
	g  *graph.Graph
	// n and m are recorded at build: a later PUT may close st.
	n, m  int
	built time.Time
}

// Server is the routing daemon: an HTTP handler set over one engine per
// algorithm, whose snapshots PUT and PATCH /graph swap.
type Server struct {
	cfg Config
	// engines holds one engine per configured algorithm, from New until
	// Drain closes them.
	engines map[string]*engine.Engine
	gen     atomic.Pointer[generation]
	stopped atomic.Bool
	// swapMu serializes PUT and PATCH /graph and Drain: each builds from,
	// or closes, the current generation.
	swapMu sync.Mutex
	// mu guards lastScrape, and orders every report read (which names the
	// snapshot's store size) before the close of a retired store.
	mu sync.Mutex
	// scrape state for interval rate gauges.
	lastScrape     map[string]scrapePoint
	httpRequests   atomic.Int64
	httpRejections atomic.Int64
}

// scrapePoint remembers one algorithm's counters at the previous
// /metrics scrape, for delta-based rate gauges.
type scrapePoint struct {
	at    time.Time
	cache prep.CacheStats
	reqs  int64
}

// New builds a server, its initial generation (including prewarm when
// configured) and one engine per algorithm — the daemon is ready to
// serve when New returns.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	for i, name := range cfg.Algorithms {
		if slices.Contains(cfg.Algorithms[:i], name) {
			return nil, fmt.Errorf("algorithm %q listed twice", name)
		}
	}
	s := &Server{
		cfg:        cfg,
		engines:    make(map[string]*engine.Engine),
		lastScrape: make(map[string]scrapePoint),
	}
	st, snaps, err := s.build(cfg.Graph)
	if err != nil {
		return nil, err
	}
	for i, name := range cfg.Algorithms {
		s.engines[name] = engine.New(snaps[i], engine.Config{Workers: cfg.Workers, MaxSteps: cfg.MaxSteps})
	}
	s.record(1, cfg.Graph.withDefaults(), st)
	return s, nil
}

// build constructs spec's topology and one snapshot of it per configured
// algorithm, in configuration order.
func (s *Server) build(spec GraphSpec) (bigraph.Store, []*engine.Snapshot, error) {
	st, err := spec.BuildStore()
	if err != nil {
		return nil, nil, err
	}
	opts := engine.SnapshotOptions{Cache: prep.CacheOptions{Capacity: s.cfg.CacheCapacity}}
	if s.cfg.Prewarm {
		opts.Prewarm = -1
	}
	snaps := make([]*engine.Snapshot, len(s.cfg.Algorithms))
	for i, name := range s.cfg.Algorithms {
		alg, err := AlgorithmByName(name)
		if err == nil {
			snaps[i], err = engine.NewSnapshotStore(st, s.cfg.K, alg, opts)
		}
		if err != nil {
			closeStore(st) // builds can fail per-algorithm; don't leak the mapping
			return nil, nil, err
		}
	}
	return st, snaps, nil
}

// swap hands snaps (one per algorithm, in configuration order) to the
// engines, then publishes the generation they route on: a request sent
// after the caller replies routes on it or a later one. Callers hold
// swapMu.
func (s *Server) swap(spec GraphSpec, st bigraph.Store, snaps []*engine.Snapshot) *generation {
	var epoch int64
	for i, name := range s.cfg.Algorithms {
		epoch = s.engines[name].SwapSnapshot(snaps[i])
	}
	return s.record(epoch, spec, st)
}

// record publishes the generation of st at epoch.
func (s *Server) record(epoch int64, spec GraphSpec, st bigraph.Store) *generation {
	g, _ := st.(*graph.Graph) // nil for store-backed (file) topologies
	gen := &generation{epoch: epoch, spec: spec, st: st, g: g, n: st.N(), m: st.M(), built: time.Now()}
	s.gen.Store(gen)
	return gen
}

// closeStore releases a topology's backing (the mmap of a file-backed
// CSR); materialized graphs are not closers and are left to the garbage
// collector.
func closeStore(st bigraph.Store) {
	if c, ok := st.(io.Closer); ok {
		_ = c.Close()
	}
}

// retire closes a swapped-out generation's store once no lane routes
// on it: Quiesce takes every lane of each engine once.
func (s *Server) retire(old *generation) {
	c, ok := old.st.(io.Closer)
	if !ok {
		return
	}
	for _, e := range s.engines {
		e.Quiesce()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = c.Close() // an unmap error leaves nothing for the daemon to do
}

// Swap builds spec's topology and snapshots off to the side, swaps them
// into every engine and publishes the new generation. Requests keep
// flowing throughout: each routes on the snapshot its engine held when
// it took a lane. A failed build leaves the current generation serving.
func (s *Server) Swap(spec GraphSpec) (*generation, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.stopped.Load() {
		return nil, fmt.Errorf("server stopping")
	}
	st, snaps, err := s.build(spec)
	if err != nil {
		return nil, err
	}
	old := s.gen.Load()
	nd := s.swap(spec.withDefaults(), st, snaps)
	s.retire(old)
	return nd, nil
}

// Drain stops intake (readyz flips to 503, handlers refuse new work),
// closes the engines once their in-flight routes finish, and releases
// the topology. Call it after the HTTP listener has shut down;
// FinalReports is valid afterwards. Idempotent.
func (s *Server) Drain() {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, e := range s.engines {
		e.Close()
	}
	s.retire(s.gen.Swap(nil))
}

// Ready reports whether the daemon is accepting routing work.
func (s *Server) Ready() bool {
	return !s.stopped.Load()
}

// FinalReports renders one final report per algorithm — the shutdown
// summary klocald prints after Drain. Each report carries the
// cumulative counters across every generation served.
func (s *Server) FinalReports() []*metrics.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*metrics.Report, 0, len(s.cfg.Algorithms))
	for _, name := range s.cfg.Algorithms {
		rep := s.engines[name].LiveReport()
		rep.Name = fmt.Sprintf("klocald %s final", name)
		out = append(out, rep)
	}
	return out
}
