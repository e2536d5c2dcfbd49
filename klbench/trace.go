package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
	"klocal/internal/sim"
)

// span is one timed call into a layer. Spans of one input share ID;
// Parent is the index of the span of the layer above for the same
// input (-1 for none), so a layer's self time is its duration minus
// its children's.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 when nil).
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n         int
	dur, self time.Duration
}

func (s layerStat) mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.dur / time.Duration(s.n)
}

func (s layerStat) meanSelf() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.self / time.Duration(s.n)
}

func (t *tracer) aggregate() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		a := out[s.Name]
		d := time.Duration(s.End - s.Start)
		a.n++
		a.dur += d
		a.self += d - child[i]
		out[s.Name] = a
	}
	return out
}

// dump writes the machine header and every span as JSON lines.
func (t *tracer) dump(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"machine\":%q}\n", header)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerCounts are the per-layer counts the replays take beside spans.
type layerCounts struct {
	msgs, hops int64 // messages and hops replayed below the engine
	respBytes  int64 // handler reply bodies
	respOps    int64
	queue      time.Duration // Σ engine wait: Do − worker time (÷ workers for a batch)
	views      int           // distinct views preprocessed
	viewAllocs uint64
	viewBytes  uint64
	viewVerts  int64
	crossings  int64
	fillViews  int   // cluster: owned views built in setup
	dirty      []int // DeltaReply.Dirty per PATCH in the traced window
	cache      cacheCounts
}

// walkScratch replays messages below the engine and collects the
// distinct views their walks decided at.
type walkScratch struct {
	sc       *sim.Scratch
	gs       *graph.SearchScratch
	route    []graph.Vertex
	seen     map[graph.Vertex]bool
	viewList []graph.Vertex
	maxViews int
}

func newWalkScratch(maxViews int) *walkScratch {
	return &walkScratch{sc: sim.NewScratch(), gs: graph.NewSearchScratch(), seen: make(map[graph.Vertex]bool), maxViews: maxViews}
}

// walk replays one message: the walk on snap (sim.walk), the stretch
// BFS a graph-backed walk includes (graph.dist), and the walk's
// decisions again with every view now cached (route.decide).
func (ws *walkScratch) walk(tr *tracer, lc *layerCounts, parent int, id int64, snap *engine.Snapshot, rq engine.Request, maxSteps int) {
	t0 := time.Now()
	res := snap.RouteScratch(rq.S, rq.T, maxSteps, ws.sc)
	walk := tr.add("sim.walk", id, parent, t0, time.Now())
	lc.msgs++
	lc.hops += int64(res.Len())
	ws.route = append(ws.route[:0], res.Route...)
	if g := snap.Graph(); g != nil {
		t0 = time.Now()
		g.DistScratch(rq.S, rq.T, ws.gs)
		tr.add("graph.dist", id, walk, t0, time.Now())
	}
	f := snap.Func()
	prev := graph.NoVertex
	t0 = time.Now()
	for _, u := range ws.route[:len(ws.route)-1] {
		_, _ = f(rq.S, rq.T, u, prev) // the walk above already took these exact steps
		prev = u
	}
	tr.add("route.decide", id, walk, t0, time.Now())
	for _, u := range ws.route[:len(ws.route)-1] {
		if !ws.seen[u] && len(ws.viewList) < ws.maxViews {
			ws.seen[u] = true
			ws.viewList = append(ws.viewList, u)
		}
	}
}

// replayHTTP replays request bodies one at a time through the daemon's
// handler on a recorder (serve.handler), then the same requests through
// a same-config engine (engine.do, a child of serve.handler) and its
// snapshot (walk). It returns the distinct views the walks touched.
func replayHTTP(tr *tracer, lc *layerCounts, h http.Handler, path string, bodies [][]byte, reqs [][]engine.Request,
	eng *engine.Engine, snap *engine.Snapshot, maxSteps, maxViews int) ([]graph.Vertex, error) {
	ws := newWalkScratch(maxViews)
	workers := eng.Config().Workers
	// One untimed pass first, so the handler's and the replay engine's
	// caches both hold the sampled views: the layers are timed warm, and
	// view builds are priced apart (prep.view_build_us × misses/msg).
	for i, body := range bodies {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if _, err := eng.DoBatch(reqs[i], 0); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	for i, body := range bodies {
		id := int64(i)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		hs := tr.add("serve.handler", id, -1, t0, time.Now())
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("replay %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
		}
		lc.respBytes += int64(rec.Body.Len())
		lc.respOps++

		t0 = time.Now()
		var resps []engine.Response
		var err error
		if len(reqs[i]) == 1 {
			var r engine.Response
			r, err = eng.Do(reqs[i][0], 0)
			resps = []engine.Response{r}
		} else {
			resps, err = eng.DoBatch(reqs[i], 0)
		}
		t1 := time.Now()
		tr.add("engine.do", id, hs, t0, t1)
		if err != nil {
			return nil, err
		}
		var work time.Duration
		for _, r := range resps {
			work += r.Latency
		}
		lc.queue += t1.Sub(t0) - work/time.Duration(min(workers, len(resps)))
		for _, rq := range reqs[i] {
			ws.walk(tr, lc, -1, id, snap, rq, maxSteps)
		}
	}
	return ws.viewList, nil
}

// viewChain preprocesses each view from scratch, single-threaded
// (prep.view_build), with the extraction it starts from timed on its
// own as a child span (nbhd.extract on a graph, bigraph.extract on a
// CSR file).
func viewChain(tr *tracer, lc *layerCounts, st bigraph.Store, views []graph.Vertex, k int, pol prep.Policy) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	builds := make([]int, len(views))
	for i, u := range views {
		t0 := time.Now()
		prep.PreprocessStore(st, u, k, pol)
		builds[i] = tr.add("prep.view_build", int64(u), -1, t0, time.Now())
	}
	runtime.ReadMemStats(&m1)
	lc.views = len(views)
	lc.viewAllocs = m1.Mallocs - m0.Mallocs
	lc.viewBytes = m1.TotalAlloc - m0.TotalAlloc
	switch s := st.(type) {
	case *graph.Graph:
		for i, u := range views {
			t0 := time.Now()
			nb := nbhd.Extract(s, u, k)
			tr.add("nbhd.extract", int64(u), builds[i], t0, time.Now())
			lc.viewVerts += int64(nb.G.N())
		}
	case *bigraph.CSR:
		sc := bigraph.NewScratch()
		for i, u := range views {
			t0 := time.Now()
			err := s.Extract(u, k, sc)
			tr.add("bigraph.extract", int64(u), builds[i], t0, time.Now())
			if err != nil {
				panic(err) // every view was just routed through
			}
		}
	}
}

// runtimeSample is the process-wide allocation and GC CPU counters.
type runtimeSample struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU, out.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return out
}

// scraper is an instance whose cache counters come from the daemon's
// /metrics.
type scraper interface{ scrape() error }

// traceRun is the traced half of a --trace 1 run: a traced window of
// the same closed loop (its latency set beside the untraced window's
// gives the tracing overhead), then the per-layer replays, the
// per-layer metrics and the reconciliation table.
func traceRun(w io.Writer, cfg config, inst instance, lp *loop, tr *tracer, res *result, e2e result,
	win window, rt0, rt1 runtimeSample, deltaP50 float64) error {
	sc, scrapes := inst.(scraper)
	if scrapes {
		if err := sc.scrape(); err != nil {
			return err
		}
	}
	runtime.GC()
	tw := lp.phase(cfg.window, tr)
	if scrapes {
		if err := sc.scrape(); err != nil {
			return err
		}
	}
	var lc layerCounts
	if err := inst.layers(tr, &lc); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	agg := tr.aggregate()

	tput := tw.throughput()
	fmt.Fprintf(w, "\ntracing overhead: throughput %.1f -> %.1f msgs/s, latency p50 %.4f -> %.4f ms (untraced -> traced)\n",
		e2e.Metrics["throughput_mps"].Value, tput, e2e.Metrics["latency_p50_ms"].Value, ms(percentile(tw.lat, 50)))

	per := func(a layerStat) float64 { return us(a.mean()) }
	msgsPerOp := 1.0
	if lc.respOps > 0 && lc.msgs > 0 {
		msgsPerOp = float64(lc.msgs) / float64(lc.respOps)
	}
	res.put("serve.handler_us", per(agg["serve.handler"]), "us/op")
	res.put("serve.self_us", us(agg["serve.handler"].meanSelf()), "us/op")
	res.put("serve.resp_kb", ratio(float64(lc.respBytes)/1024, float64(lc.respOps)), "KB/op")
	patchSelf := 0.0
	if a := agg["client.patch"]; a.n > 0 {
		patchSelf = ms(a.mean() - agg["churn.apply"].mean() - agg["prep.derive"].mean())
	}
	res.put("serve.patch_self_ms", patchSelf, "ms/delta")
	loopback := 0.0
	if agg["serve.handler"].n > 0 {
		loopback = us(agg["client.op"].mean() - agg["serve.handler"].mean())
	}
	res.put("net.loopback_us", loopback, "us/op")
	res.put("bench.client_us", per(agg["bench.client"]), "us/op")
	res.put("engine.do_us", per(agg["engine.do"]), "us/op")
	res.put("engine.queue_us", ratio(us(lc.queue), float64(lc.respOps)), "us/op")
	res.put("sim.walk_us", per(agg["sim.walk"]), "us/msg")
	res.put("sim.hops", ratio(float64(lc.hops), float64(lc.msgs)), "hops/msg")
	res.put("graph.dist_us", per(agg["graph.dist"]), "us/msg")
	res.put("route.decide_ns", ratio(float64(agg["route.decide"].dur), float64(lc.hops)), "ns/hop")
	res.put("prep.view_build_us", per(agg["prep.view_build"]), "us/view")
	res.put("prep.view_allocs", ratio(float64(lc.viewAllocs), float64(lc.views)), "allocs/view")
	res.put("prep.view_kb", ratio(float64(lc.viewBytes)/1024, float64(lc.views)), "KB/view")
	res.put("prep.hit_ratio", ratio(lc.cache.hits, lc.cache.hits+lc.cache.misses), "hits/lookup")
	res.put("prep.misses_per_msg", ratio(lc.cache.misses, lc.cache.requests), "misses/msg")
	res.put("prep.derive_ms", ms(agg["prep.derive"].mean()), "ms/delta")
	res.put("nbhd.extract_us", per(agg["nbhd.extract"]), "us/view")
	res.put("nbhd.view_vertices", ratio(float64(lc.viewVerts), float64(agg["nbhd.extract"].n)), "vertices/view")
	res.put("bigraph.extract_us", per(agg["bigraph.extract"]), "us/view")
	res.put("bigraph.build_s", agg["bigraph.build"].mean().Seconds(), "s")
	res.put("bigraph.load_ms", ms(agg["bigraph.load"].mean()), "ms")
	res.put("churn.apply_us", per(agg["churn.apply"]), "us/delta")
	dirty := 0
	for _, d := range lc.dirty {
		dirty += d
	}
	res.put("churn.dirty_views", ratio(float64(dirty), float64(len(lc.dirty))), "views/delta")
	res.put("churn.delta_p50_ms", deltaP50, "ms/delta")
	res.put("cluster.converge_ms", ms(agg["cluster.converge"].mean()), "ms")
	res.put("cluster.view_fill_us", ratio(us(agg["cluster.fill"].dur), float64(lc.fillViews)), "us/view")
	routeUS := per(agg["cluster.route"])
	res.put("cluster.route_us", routeUS, "us/msg")
	crossings := ratio(float64(lc.crossings), float64(agg["cluster.route"].n))
	res.put("cluster.crossings", crossings, "crossings/msg")
	crossingUS := 0.0
	if crossings > 0 {
		// The cluster's walk does no stretch BFS, so the replayed walk
		// without graph.dist is its share of cluster.route.
		crossingUS = (routeUS - per(agg["sim.walk"]) + per(agg["graph.dist"])) / crossings
	}
	res.put("cluster.crossing_us", crossingUS, "us/crossing")
	res.put("runtime.allocs_per_msg", ratio(float64(rt1.mallocs-rt0.mallocs), float64(win.msgs)), "allocs/msg")
	res.put("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction")

	fmt.Fprintln(w, "\nper-layer metrics (0 = layer idle on this workload):")
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	reconcile(w, res, e2e, agg, lc, msgsPerOp)
	return nil
}

// reconcile prints the layers' self times per operation, each measured
// alone on an otherwise idle system, next to the untraced latency p50.
// The remainder is what the layers leave unexplained: the loopback and
// HTTP client, and contention between the closed-loop clients. It goes
// negative where one request at a time runs slower than the loaded
// loop, as cluster handoffs do when each wakes an idle thread.
func reconcile(w io.Writer, res *result, e2e result, agg map[string]layerStat, lc layerCounts, msgsPerOp float64) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	type row struct {
		layer string
		us    float64
	}
	var rows []row
	if agg["serve.handler"].n > 0 {
		// Below the engine the W workers run a batch's walks in parallel.
		par := msgsPerOp
		if par > float64(runtime.GOMAXPROCS(0)) {
			par = float64(runtime.GOMAXPROCS(0))
		}
		perOp := msgsPerOp / par
		rows = []row{
			{"serve (handler self)", m("serve.self_us")},
			{"engine (queue)", m("engine.queue_us")},
			{"sim (walk self)", us(agg["sim.walk"].meanSelf()) * perOp},
			{"prep (view builds: misses/msg × build)", m("prep.misses_per_msg") * m("prep.view_build_us") * perOp},
			{"graph (stretch BFS)", m("graph.dist_us") * perOp},
			{"route (decisions)", us(agg["route.decide"].mean()) * perOp},
		}
	} else {
		rows = []row{
			{"cluster (crossings)", m("cluster.crossing_us") * m("cluster.crossings")},
			{"sim (walk self)", us(agg["sim.walk"].meanSelf())},
			{"route (decisions)", us(agg["route.decide"].mean())},
		}
	}
	fmt.Fprintf(w, "\nreconciliation (µs per operation of %.0f message(s); layers timed alone):\n", msgsPerOp)
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %12.2f\n", r.layer, r.us)
		sum += r.us
	}
	p50 := e2e.Metrics["latency_p50_ms"].Value * 1000
	fmt.Fprintf(w, "  %-36s %12.2f\n", "sum of layers", sum)
	fmt.Fprintf(w, "  %-36s %12.2f\n", "latency_p50 (untraced)", p50)
	fmt.Fprintf(w, "  %-36s %12.2f  (%.0f%% of p50)\n", "unexplained", p50-sum, 100*ratio(p50-sum, p50))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
