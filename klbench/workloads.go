package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/cluster"
	"klocal/internal/engine"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/serve"
)

// The four workloads. Each loads a different set of layers, so a change
// to one layer has a workload that exercises it and one that predicts
// no change:
//
//   - route-warm: the daemon's steady state, /route on prewarmed views
//     (serve, engine, sim, route, graph; prep idle, hit ratio 1.0);
//   - churn-patch: PATCH /graph chord flaps beside /route (churn and
//     prep.Derive, plus lazy rebuilds of the dirty views);
//   - scale-cold: /batch on a mmap'd 10^6-vertex grid whose working set
//     is ~30× the view cache (bigraph extraction and prep per hop);
//   - cluster-loop: the same traffic as route-warm through an
//     in-process 4-member cluster (shard handoffs, owned-view builds).
type workload interface {
	// setup builds the system under test from nothing; it is timed.
	setup(tr *tracer) (instance, error)
	// plan returns the set-ups per run and the warm-up before the window.
	plan() (setups int, warmup time.Duration)
}

func workloadNames() []string {
	return []string{"route-warm", "churn-patch", "scale-cold", "cluster-loop"}
}

// newWorkload generates the workload's inputs from cfg.seed. It is not
// timed.
func newWorkload(name string, cfg *config) (workload, error) {
	switch name {
	case "route-warm":
		return newRouteWarm(cfg)
	case "churn-patch":
		return newChurnPatch(cfg)
	case "scale-cold":
		return newScaleCold(cfg), nil
	case "cluster-loop":
		return newClusterLoop(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

const algName = "alg2"

// zipfPairs draws n pairs from engine.Zipf and records each pair's
// distance on g.
func zipfPairs(g *graph.Graph, seed int64, n int) []pair {
	wl := engine.Zipf(rand.New(rand.NewSource(seed)), g, engine.ZipfSkew)
	sc := graph.NewSearchScratch()
	out := make([]pair, n)
	for i := range out {
		r := wl.Next()
		out[i] = pair{s: r.S, t: r.T, dist: g.DistScratch(r.S, r.T, sc)}
	}
	return out
}

// gridPairs draws n pairs on a side×side grid (vertex r·side+c): a
// uniform source and a destination at grid distance 1..k from it.
func gridPairs(rng *rand.Rand, side, k, n int) []pair {
	out := make([]pair, 0, n)
	for len(out) < n {
		s := rng.Intn(side * side)
		dr := rng.Intn(2*k+1) - k
		rest := k - abs(dr)
		dc := rng.Intn(2*rest+1) - rest
		r, c := s/side+dr, s%side+dc
		if (dr == 0 && dc == 0) || r < 0 || r >= side || c < 0 || c >= side {
			continue
		}
		out = append(out, pair{s: graph.Vertex(s), t: graph.Vertex(r*side + c), dist: abs(dr) + abs(dc)})
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are encoded
	}
	return b
}

func routeBodies(ps []pair) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = mustJSON(serve.RouteRequest{S: p.s, T: p.t})
	}
	return out
}

// opIndex spreads the clients over one input stream.
func opIndex(c, i, clients, n int) int { return (i*clients + c) % n }

// ---- route-warm ----

type routeWarm struct {
	cfg    *config
	spec   serve.GraphSpec
	g      *graph.Graph // the checker's copy of the topology
	k      int
	pairs  []pair
	bodies [][]byte
}

func newRouteWarm(cfg *config) (*routeWarm, error) {
	spec := serve.GraphSpec{Kind: "lollipop", Size: cfg.lollipopN}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	alg, err := serve.AlgorithmByName(algName)
	if err != nil {
		return nil, err
	}
	ps := zipfPairs(g, cfg.seed, cfg.pairs)
	return &routeWarm{cfg: cfg, spec: spec, g: g, k: alg.MinK(g.N()), pairs: ps, bodies: routeBodies(ps)}, nil
}

func (w *routeWarm) plan() (int, time.Duration) { return w.cfg.setupReps, w.cfg.warmup }

func (w *routeWarm) setup(*tracer) (instance, error) {
	d, err := startDaemon(serve.Config{Graph: w.spec, Algorithms: []string{algName}, Prewarm: true}, w.cfg.clients)
	if err != nil {
		return nil, err
	}
	return &routeInst{w: w, d: d}, nil
}

type routeInst struct {
	w *routeWarm
	d *daemon
}

func (r *routeInst) op(c, i int, tr *tracer) opResult {
	j := opIndex(c, i, r.w.cfg.clients, len(r.w.pairs))
	p := r.w.pairs[j]
	start := time.Now()
	status, lat, err := r.d.call(c, http.MethodPost, "/route", r.w.bodies[j])
	res := opResult{msgs: 1, lat: lat, err: err}
	tr.add("client.op", int64(j), -1, start, start.Add(lat))
	if err == nil {
		t0 := time.Now()
		ep := epochs{lo: 1, hi: 1, topo: r.w.topo}
		res.err = checkRouteReply(status, r.d.body(c), p, ep, walkCheck{bound: serve.DilationBound(algName)})
		tr.add("bench.client", int64(j), -1, t0, time.Now())
	}
	return res
}

func (w *routeWarm) topo(epoch int64) *graph.Graph {
	if epoch == 1 {
		return w.g
	}
	return nil
}

func (r *routeInst) layers(tr *tracer, lc *layerCounts) error {
	w := r.w
	alg, _ := serve.AlgorithmByName(algName)
	snap, err := engine.NewSnapshotStore(w.g, w.k, alg, engine.SnapshotOptions{Prewarm: -1})
	if err != nil {
		return err
	}
	eng := engine.New(snap, engine.Config{})
	defer eng.Close()
	n := min(w.cfg.sample, len(w.pairs))
	views, err := replayHTTP(tr, lc, r.d.srv.Handler(), "/route", w.bodies[:n], singles(w.pairs[:n]), eng, snap, 0, w.cfg.maxViews)
	if err != nil {
		return err
	}
	viewChain(tr, lc, w.g, views, w.k, alg.Policy)
	lc.cache = r.d.cacheCounts()
	return nil
}

func (r *routeInst) scrape() error { return r.d.scrape(0) }

func (r *routeInst) close() { r.d.close() }

func singles(ps []pair) [][]engine.Request {
	out := make([][]engine.Request, len(ps))
	for i, p := range ps {
		out[i] = []engine.Request{{S: p.s, T: p.t}}
	}
	return out
}

// ---- churn-patch ----

type churnPatch struct {
	cfg    *config
	spec   serve.GraphSpec
	base   *graph.Graph
	plus   []*graph.Graph // base with chord j added
	chords []churn.Delta  // add-edge deltas; a flap removes the chord it added
	flaps  [][]byte       // PATCH bodies in flap order: add c0, remove c0, add c1, ...
	pairs  []pair
	bodies [][]byte
}

func newChurnPatch(cfg *config) (*churnPatch, error) {
	spec := serve.GraphSpec{Kind: "grid", Size: cfg.gridN}
	base, err := spec.Build()
	if err != nil {
		return nil, err
	}
	side := 1
	for side*side < cfg.gridN {
		side++
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &churnPatch{cfg: cfg, spec: spec, base: base}
	// Chords join interior vertices more than 2k+1 apart, so every flap
	// dirties the same number of views whatever the seed.
	k := cfg.churnK
	if 2*(side-2*k-1) <= 2*k+1 {
		return nil, fmt.Errorf("churn-patch: a %d×%d grid has no interior vertices more than %d apart", side, side, 2*k+1)
	}
	interior := func() (int, int) { return k + rng.Intn(side-2*k), k + rng.Intn(side-2*k) }
	for len(w.chords) < cfg.chords {
		ur, uc := interior()
		vr, vc := interior()
		if abs(ur-vr)+abs(uc-vc) <= 2*k+1 {
			continue
		}
		u, v := graph.Vertex(ur*side+uc), graph.Vertex(vr*side+vc)
		w.chords = append(w.chords, churn.Delta{Op: churn.AddEdge, U: u, V: v})
		w.plus = append(w.plus, base.WithEdge(u, v))
		w.flaps = append(w.flaps,
			mustJSON(serve.DeltaRequest{Deltas: []serve.DeltaSpec{{Op: "add-edge", U: u, V: v}}}),
			mustJSON(serve.DeltaRequest{Deltas: []serve.DeltaSpec{{Op: "remove-edge", U: u, V: v}}}))
	}
	w.pairs = gridPairs(rng, side, cfg.churnK, cfg.pairs)
	w.bodies = routeBodies(w.pairs)
	return w, nil
}

// flap returns the f-th chord flap (f ≥ 1): odd flaps add chord
// (f−1)/2 mod chords, even flaps remove it again, so the graph stays
// connected and every epoch's topology is known in advance.
func (w *churnPatch) flap(f int64) churn.Delta {
	d := w.chords[((f-1)/2)%int64(len(w.chords))]
	if f%2 == 0 {
		d.Op = churn.RemoveEdge
	}
	return d
}

// topo is the epoch → topology mirror: epoch 1 is the base grid and
// epoch e+1 follows flap e.
func (w *churnPatch) topo(epoch int64) *graph.Graph {
	f := epoch - 1
	switch {
	case f < 0:
		return nil
	case f%2 == 1:
		return w.plus[((f-1)/2)%int64(len(w.plus))]
	default:
		return w.base
	}
}

func (w *churnPatch) plan() (int, time.Duration) { return w.cfg.setupReps, w.cfg.warmup }

func (w *churnPatch) setup(*tracer) (instance, error) {
	d, err := startDaemon(serve.Config{Graph: w.spec, Algorithms: []string{algName}, K: w.cfg.churnK, Prewarm: true}, w.cfg.clients)
	if err != nil {
		return nil, err
	}
	ci := &churnInst{w: w, d: d}
	ci.acked.Store(1)
	return ci, nil
}

type churnInst struct {
	w *churnPatch
	d *daemon
	// sent counts PATCHes sent, acked is the epoch the last PATCH reply
	// named. Only client 0 writes them.
	sent  atomic.Int64
	acked atomic.Int64
	// dirty collects DeltaReply.Dirty in the traced window.
	mu    sync.Mutex
	dirty []int
}

func (ci *churnInst) op(c, i int, tr *tracer) opResult {
	w := ci.w
	if c == 0 && i%w.cfg.flapEvery == w.cfg.flapEvery-1 {
		return ci.patch(tr)
	}
	j := opIndex(c, i, w.cfg.clients, len(w.pairs))
	lo := ci.acked.Load()
	start := time.Now()
	status, lat, err := ci.d.call(c, http.MethodPost, "/route", w.bodies[j])
	res := opResult{msgs: 1, lat: lat, err: err}
	tr.add("client.op", int64(j), -1, start, start.Add(lat))
	if err == nil {
		t0 := time.Now()
		ep := epochs{lo: lo, hi: 1 + ci.sent.Load(), topo: w.topo}
		res.err = checkRouteReply(status, ci.d.body(c), w.pairs[j], ep, walkCheck{})
		tr.add("bench.client", int64(j), -1, t0, time.Now())
	}
	return res
}

// patch sends the next chord flap. In the traced window it scrapes the
// cache counters just before and just after, so every scrape interval
// stays on one generation.
func (ci *churnInst) patch(tr *tracer) opResult {
	w := ci.w
	if tr != nil {
		if err := ci.d.scrape(0); err != nil {
			return opResult{delta: true, err: err}
		}
	}
	f := ci.sent.Add(1)
	body := w.flaps[(f-1)%int64(len(w.flaps))]
	start := time.Now()
	status, lat, err := ci.d.call(0, http.MethodPatch, "/graph", body)
	res := opResult{delta: true, lat: lat, err: err}
	tr.add("client.patch", f, -1, start, start.Add(lat))
	if err != nil {
		return res
	}
	dr, err := checkDeltaReply(status, ci.d.body(0), 1+f, w.base.N())
	if err != nil {
		res.err = err
		return res
	}
	ci.acked.Store(dr.Epoch)
	if tr != nil {
		ci.mu.Lock()
		ci.dirty = append(ci.dirty, dr.Dirty)
		ci.mu.Unlock()
		res.err = ci.d.scrape(0)
	}
	return res
}

func (ci *churnInst) layers(tr *tracer, lc *layerCounts) error {
	w := ci.w
	alg, _ := serve.AlgorithmByName(algName)
	snap, err := engine.NewSnapshotStore(w.base, w.cfg.churnK, alg, engine.SnapshotOptions{Prewarm: -1})
	if err != nil {
		return err
	}
	eng := engine.New(snap, engine.Config{})
	defer eng.Close()
	// The handler replay runs on the daemon's current epoch; the pairs
	// stay within k on every epoch.
	n := min(w.cfg.sample, len(w.pairs))
	views, err := replayHTTP(tr, lc, ci.d.srv.Handler(), "/route", w.bodies[:n], singles(w.pairs[:n]), eng, snap, 0, w.cfg.maxViews)
	if err != nil {
		return err
	}
	viewChain(tr, lc, w.base, views, w.cfg.churnK, alg.Policy)
	// The PATCH path below the handler: churn.ApplyAll, then
	// Snapshot.Incremental (prep.Derive) on a prewarmed snapshot.
	g, cur := w.base, snap
	runtime.GC()
	for f := int64(1); f <= int64(w.cfg.deltaFlaps); f++ {
		t0 := time.Now()
		post, dirty, err := churn.ApplyAll(g, []churn.Delta{w.flap(f)}, w.cfg.churnK)
		tr.add("churn.apply", f, -1, t0, time.Now())
		if err != nil {
			return err
		}
		t0 = time.Now()
		next, err := cur.Incremental(post, dirty)
		tr.add("prep.derive", f, -1, t0, time.Now())
		if err != nil {
			return err
		}
		g, cur = post, next
	}
	ci.mu.Lock()
	lc.dirty = append(lc.dirty, ci.dirty...)
	ci.mu.Unlock()
	lc.cache = ci.d.cacheCounts()
	return nil
}

func (ci *churnInst) scrape() error { return ci.d.scrape(0) }

func (ci *churnInst) close() { ci.d.close() }

// ---- scale-cold ----

type scaleCold struct {
	cfg     *config
	batches [][]pair
	bodies  [][]byte
	setups  int // set-ups so far, for unique graph file names
}

func newScaleCold(cfg *config) *scaleCold {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &scaleCold{cfg: cfg}
	ps := gridPairs(rng, cfg.scaleSide, cfg.scaleK, cfg.coldPairs)
	for i := 0; i+cfg.batch <= len(ps); i += cfg.batch {
		b := ps[i : i+cfg.batch]
		req := serve.BatchRequest{Pairs: make([][2]graph.Vertex, len(b))}
		for j, p := range b {
			req.Pairs[j] = [2]graph.Vertex{p.s, p.t}
		}
		w.batches = append(w.batches, b)
		w.bodies = append(w.bodies, mustJSON(req))
	}
	return w
}

func (w *scaleCold) plan() (int, time.Duration) { return w.cfg.setupReps, w.cfg.fillWarmup }

// setup streams the grid into a KLBIGCSR file, as csrgen does, and
// deploys it store-backed (mmap).
func (w *scaleCold) setup(tr *tracer) (instance, error) {
	w.setups++
	path := filepath.Join(w.cfg.out, fmt.Sprintf("scale-%d-%d.csr", os.Getpid(), w.setups))
	t0 := time.Now()
	csr, err := gen.GridCSR(w.cfg.scaleSide, w.cfg.scaleSide)
	if err == nil {
		err = csr.WriteFile(path)
	}
	tr.add("bigraph.build", 0, -1, t0, time.Now())
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	d, err := startDaemon(serve.Config{
		Graph:         serve.GraphSpec{Kind: "file", Path: path},
		Algorithms:    []string{algName},
		K:             w.cfg.scaleK,
		MaxSteps:      2 * w.cfg.scaleK,
		CacheCapacity: w.cfg.cacheCap,
	}, w.cfg.clients)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return &scaleInst{w: w, d: d, path: path}, nil
}

type scaleInst struct {
	w    *scaleCold
	d    *daemon
	path string
	// chk is the checker's own mapping of the graph file, opened on
	// first use so it stays out of setup_s.
	once   sync.Once
	chk    *bigraph.CSR
	chkErr error
}

func (si *scaleInst) store() (*bigraph.CSR, error) {
	si.once.Do(func() { si.chk, si.chkErr = bigraph.LoadFile(si.path) })
	return si.chk, si.chkErr
}

func (si *scaleInst) op(c, i int, tr *tracer) opResult {
	w := si.w
	j := opIndex(c, i, w.cfg.clients, len(w.batches))
	start := time.Now()
	status, lat, err := si.d.call(c, http.MethodPost, "/batch", w.bodies[j])
	res := opResult{msgs: len(w.batches[j]), lat: lat, err: err}
	tr.add("client.op", int64(j), -1, start, start.Add(lat))
	if err == nil {
		t0 := time.Now()
		st, err := si.store()
		if err == nil {
			err = checkBatchReply(status, si.d.body(c), w.batches[j], st, walkCheck{maxHops: 2 * w.cfg.scaleK})
		}
		res.err = err
		tr.add("bench.client", int64(j), -1, t0, time.Now())
	}
	return res
}

func (si *scaleInst) layers(tr *tracer, lc *layerCounts) error {
	w := si.w
	st, err := si.store()
	if err != nil {
		return err
	}
	alg, _ := serve.AlgorithmByName(algName)
	snap, err := engine.NewSnapshotStore(st, w.cfg.scaleK, alg, engine.SnapshotOptions{Cache: prep.CacheOptions{Capacity: w.cfg.cacheCap}})
	if err != nil {
		return err
	}
	eng := engine.New(snap, engine.Config{MaxSteps: 2 * w.cfg.scaleK})
	defer eng.Close()
	n := min(max(1, w.cfg.sample/w.cfg.batch), len(w.batches))
	reqs := make([][]engine.Request, n)
	for i, b := range w.batches[:n] {
		for _, p := range b {
			reqs[i] = append(reqs[i], engine.Request{S: p.s, T: p.t})
		}
	}
	views, err := replayHTTP(tr, lc, si.d.srv.Handler(), "/batch", w.bodies[:n], reqs, eng, snap, 2*w.cfg.scaleK, w.cfg.maxViews)
	if err != nil {
		return err
	}
	viewChain(tr, lc, st, views, w.cfg.scaleK, alg.Policy)
	t0 := time.Now()
	c2, err := bigraph.LoadFile(si.path)
	tr.add("bigraph.load", 0, -1, t0, time.Now())
	if err != nil {
		return err
	}
	c2.Close()
	lc.cache = si.d.cacheCounts()
	return nil
}

func (si *scaleInst) scrape() error { return si.d.scrape(0) }

func (si *scaleInst) close() {
	si.d.close()
	if si.chk != nil {
		si.chk.Close()
	}
	os.Remove(si.path)
}

// ---- cluster-loop ----

type clusterLoop struct {
	cfg   *config
	spec  serve.GraphSpec
	g     *graph.Graph
	k     int
	pairs []pair
}

func newClusterLoop(cfg *config) (*clusterLoop, error) {
	rw, err := newRouteWarm(cfg)
	if err != nil {
		return nil, err
	}
	return &clusterLoop{cfg: cfg, spec: rw.spec, g: rw.g, k: rw.k, pairs: rw.pairs}, nil
}

func (w *clusterLoop) plan() (int, time.Duration) { return w.cfg.slowSetupReps, w.cfg.warmup }

// setup builds the members over a LoopTransport, converges them
// without ever starting their timers, and routes once from every
// vertex so every owned view is built.
func (w *clusterLoop) setup(tr *tracer) (instance, error) {
	g, err := w.spec.Build()
	if err != nil {
		return nil, err
	}
	members, _, err := cluster.NewLocalCluster(g, cluster.LocalClusterConfig{Shards: w.cfg.shards, K: w.k, Alg: route.Algorithm2()})
	if err != nil {
		return nil, err
	}
	ci := &clusterInst{w: w, members: members}
	t0 := time.Now()
	err = cluster.Converge(members, 0)
	tr.add("cluster.converge", 0, -1, t0, time.Now())
	if err != nil {
		ci.close()
		return nil, err
	}
	vs := g.Vertices()
	t0 = time.Now()
	for i, s := range vs {
		t := vs[(i+1)%len(vs)]
		rep, err := members[i%len(members)].Route(context.Background(), s, t, false)
		if err == nil && !rep.Delivered {
			err = fmt.Errorf("fill route %d -> %d undelivered: %s", s, t, rep.Err)
		}
		if err != nil {
			ci.close()
			return nil, err
		}
	}
	tr.add("cluster.fill", int64(len(vs)), -1, t0, time.Now())
	return ci, nil
}

type clusterInst struct {
	w       *clusterLoop
	members []*cluster.Member
}

func (ci *clusterInst) op(c, i int, tr *tracer) opResult {
	w := ci.w
	j := opIndex(c, i, w.cfg.clients, len(w.pairs))
	p := w.pairs[j]
	entry := ci.members[opIndex(c, i, w.cfg.clients, len(ci.members))]
	start := time.Now()
	rep, err := entry.Route(context.Background(), p.s, p.t, false)
	lat := time.Since(start)
	res := opResult{msgs: 1, lat: lat, err: err}
	tr.add("client.op", int64(j), -1, start, start.Add(lat))
	if err == nil {
		t0 := time.Now()
		res.err = checkClusterReply(rep, p, w.g, walkCheck{bound: serve.DilationBound(algName)})
		tr.add("bench.client", int64(j), -1, t0, time.Now())
	}
	return res
}

func (ci *clusterInst) layers(tr *tracer, lc *layerCounts) error {
	w := ci.w
	alg, _ := serve.AlgorithmByName(algName)
	snap, err := engine.NewSnapshotStore(w.g, w.k, alg, engine.SnapshotOptions{Prewarm: -1})
	if err != nil {
		return err
	}
	n := min(w.cfg.sample, len(w.pairs))
	ws := newWalkScratch(w.cfg.maxViews)
	for i, p := range w.pairs[:n] {
		id := int64(i)
		t0 := time.Now()
		rep, err := ci.members[i%len(ci.members)].Route(context.Background(), p.s, p.t, false)
		rs := tr.add("cluster.route", id, -1, t0, time.Now())
		if err == nil {
			err = checkClusterReply(rep, p, w.g, walkCheck{})
		}
		if err != nil {
			return err
		}
		lc.crossings += int64(rep.Crossings)
		ws.walk(tr, lc, rs, id, snap, engine.Request{S: p.s, T: p.t}, 0)
	}
	viewChain(tr, lc, w.g, ws.viewList, w.k, alg.Policy)
	lc.fillViews = w.g.N()
	return nil
}

func (ci *clusterInst) close() {
	for _, m := range ci.members {
		m.Stop()
	}
}
