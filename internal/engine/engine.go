package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/sim"
)

// Request is one routing task: deliver a message from S to T.
type Request struct {
	S, T graph.Vertex
}

// Response is the outcome of one routed request.
type Response struct {
	Request
	// Index is the request's position in its batch (0 for Do).
	Index int
	// Worker identifies the lane that routed the request.
	Worker int
	// Result is the full simulation result.
	Result *sim.Result
	// Latency is the wall time spent routing the request.
	Latency time.Duration
}

// Config tunes an Engine.
type Config struct {
	// Workers is the number of lanes: at most this many requests route
	// at once (0 = GOMAXPROCS).
	Workers int
	// MaxSteps bounds each walk (0 = sim's default budget).
	MaxSteps int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// ErrClosed is returned by Do, DoBatch and RunWorkload once Close has
// begun.
var ErrClosed = errors.New("engine: closed")

// ErrSaturated is returned by Do and DoBatch when no lane frees within
// the caller's admission budget — the signal the serving layer turns
// into HTTP 429.
var ErrSaturated = errors.New("engine: every lane busy past admission budget")

// lane is one routing slot. The caller holding it routes on its own
// goroutine into the lane's scratch and records into the lane's shard.
type lane struct {
	id int
	sc *sim.Scratch
	sh *metrics.Shard
}

// Engine routes requests concurrently over one Snapshot through a fixed
// set of lanes. A caller checks a lane out, routes on its own goroutine
// and hands the lane back; a caller that finds every lane busy waits for
// one, within its admission budget. Each lane records into its own
// metrics shard and the snapshot's view cache is lock-free, so routing
// takes no shared lock. An Engine is a single session: use it, Close it,
// read Report.
type Engine struct {
	// snap is the snapshot the lanes route over, behind an atomic
	// pointer so SwapSnapshot can hot-swap topology epochs mid-traffic:
	// each route loads the pointer once and routes entirely on that
	// epoch's consistent (graph, views) pair.
	snap atomic.Pointer[Snapshot]
	cfg  Config

	// lanes holds the idle lanes. Its capacity is the lane count, so
	// handing a lane back never blocks.
	lanes  chan *lane
	shards []*metrics.Shard
	// closing is closed when Close begins; it wakes every caller waiting
	// for a lane.
	closing   chan struct{}
	closeOnce sync.Once

	started time.Time
	// firstAt is the wall clock of the first lane checkout (unix nanos,
	// 0 until then): the start of the active window. Throughput is
	// reqs / elapsed_active, so an engine that sits idle between New and
	// its first request does not under-report.
	firstAt atomic.Int64
	// closedNano is the wall clock at which Close had collected every
	// lane (unix nanos, 0 while running).
	closedNano atomic.Int64
}

// New builds an engine of cfg.Workers lanes over snap. It starts no
// goroutine: callers route on their own through Do and DoBatch, then
// Close.
func New(snap *Snapshot, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		lanes:   make(chan *lane, cfg.Workers),
		shards:  make([]*metrics.Shard, cfg.Workers),
		closing: make(chan struct{}),
		started: time.Now(),
	}
	e.snap.Store(snap)
	for i := range e.shards {
		e.shards[i] = metrics.NewShard(workerMetrics)
		e.lanes <- &lane{id: i, sc: sim.NewScratch(), sh: e.shards[i]}
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Snapshot returns the snapshot the engine currently routes over.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SwapSnapshot atomically replaces the snapshot the lanes route over
// and returns the previous one. In-flight requests finish on the
// snapshot they loaded; requests that start after the swap route on
// next. The caller is responsible for next being a binding of the same
// algorithm family it wants reported (the report reads the current
// snapshot's descriptor).
func (e *Engine) SwapSnapshot(next *Snapshot) *Snapshot {
	return e.snap.Swap(next)
}

// The lane metrics, registered once for every lane's shard.
var (
	workerMetrics = &metrics.Schema{}
	mRequests     = workerMetrics.Counter("requests")
	mDelivered    = workerMetrics.Counter("delivered")
	mLooped       = workerMetrics.Counter("looped")
	mErrored      = workerMetrics.Counter("errored")
	mExhausted    = workerMetrics.Counter("exhausted")
	mLatency      = workerMetrics.Histogram("latency_ns")
	mHops         = workerMetrics.Histogram("hops")
	mStretch      = workerMetrics.Histogram("stretch_milli")
)

// acquire checks a lane out. It takes an idle lane without waiting when
// one is free; otherwise it waits up to budget (0 = until a lane frees)
// and fails with ErrSaturated past it. It fails with ErrClosed once
// Close has begun.
func (e *Engine) acquire(budget time.Duration) (*lane, error) {
	var l *lane
	select {
	case l = <-e.lanes:
	default:
		var err error
		if l, err = e.wait(budget); err != nil {
			return nil, err
		}
	}
	select {
	case <-e.closing:
		// Close collects every lane: hand this one back to it.
		e.release(l)
		return nil, ErrClosed
	default:
	}
	if e.firstAt.Load() == 0 {
		e.firstAt.CompareAndSwap(0, time.Now().UnixNano())
	}
	return l, nil
}

// wait is acquire's slow path, taken only when every lane is busy: the
// timer is armed here, never on the fast path.
func (e *Engine) wait(budget time.Duration) (*lane, error) {
	var expire <-chan time.Time
	if budget > 0 {
		tm := time.NewTimer(budget)
		defer tm.Stop()
		expire = tm.C
	}
	select {
	case l := <-e.lanes:
		return l, nil
	case <-e.closing:
		return nil, ErrClosed
	case <-expire:
		return nil, ErrSaturated
	}
}

// release hands a checked-out lane back.
func (e *Engine) release(l *lane) { e.lanes <- l }

// route routes req on l and records the outcome into l's shard. The
// result is owned by l's scratch: valid until l's next route, Clone to
// retain.
func (e *Engine) route(l *lane, req Request) (*sim.Result, time.Duration) {
	start := time.Now()
	res := e.snap.Load().RouteScratch(req.S, req.T, e.cfg.MaxSteps, l.sc)
	lat := time.Since(start)

	sh := l.sh
	sh.Add(mRequests, 1)
	sh.Observe(mLatency, lat.Nanoseconds())
	switch res.Outcome {
	case sim.Delivered:
		sh.Add(mDelivered, 1)
		sh.Observe(mHops, int64(res.Len()))
		if res.Dist > 0 {
			// Stretch recorded in milli-units so the log-scale
			// buckets resolve the 1.0–7.0 range the theorems bound.
			sh.Observe(mStretch, int64(res.Dilation()*1000+0.5))
		}
	case sim.Looped:
		sh.Add(mLooped, 1)
	case sim.Errored:
		sh.Add(mErrored, 1)
	case sim.Exhausted:
		sh.Add(mExhausted, 1)
	}
	return res, lat
}

// routeBatch routes reqs in order on l into out, which has their
// length. Response i carries Index base+i and a Result cloned out of
// the lane's scratch.
func (e *Engine) routeBatch(l *lane, reqs []Request, out []Response, base int) {
	for i, req := range reqs {
		res, lat := e.route(l, req)
		out[i] = Response{Request: req, Index: base + i, Worker: l.id, Result: res.Clone(), Latency: lat}
	}
}

// Do routes one request on the caller's goroutine. It takes an idle
// lane, or waits for one at most budget (0 = until a lane frees):
// ErrSaturated past it is the admission-control signal. Safe for
// concurrent callers.
func (e *Engine) Do(req Request, budget time.Duration) (Response, error) {
	l, err := e.acquire(budget)
	if err != nil {
		return Response{}, err
	}
	res, lat := e.route(l, req)
	resp := Response{Request: req, Worker: l.id, Result: res.Clone(), Latency: lat}
	e.release(l)
	return resp, nil
}

// DoBatch routes reqs in order on one lane, on the caller's goroutine,
// and returns their responses in request order. It acquires the lane as
// Do does, so budget bounds the whole wait before routing starts; a
// saturated batch routes nothing. Safe for concurrent callers, which
// route on separate lanes.
func (e *Engine) DoBatch(reqs []Request, budget time.Duration) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	l, err := e.acquire(budget)
	if err != nil {
		return nil, err
	}
	out := make([]Response, len(reqs))
	e.routeBatch(l, reqs, out, 0)
	e.release(l)
	return out, nil
}

// Close marks the engine closed, wakes every caller waiting for a lane
// (they fail with ErrClosed), and collects every lane, so it returns
// only once every in-flight route has finished. Idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.closing)
		for range e.cfg.Workers {
			<-e.lanes
		}
		e.closedNano.Store(time.Now().UnixNano())
	})
}

// TotalElapsed is the wall time since New (up to Close once closed).
func (e *Engine) TotalElapsed() time.Duration {
	if c := e.closedNano.Load(); c > 0 {
		return time.Duration(c - e.started.UnixNano())
	}
	return time.Since(e.started)
}

// ActiveElapsed is the wall time since the first lane checkout (up to
// Close once closed), i.e. the window throughput is measured over. Zero
// before any request is accepted.
func (e *Engine) ActiveElapsed() time.Duration {
	f := e.firstAt.Load()
	if f == 0 {
		return 0
	}
	if c := e.closedNano.Load(); c > 0 {
		return time.Duration(c - f)
	}
	return time.Duration(time.Now().UnixNano() - f)
}

// RunWorkload draws requests from w and routes them on every lane at
// once, one goroutine per lane, discarding individual responses (the
// metrics shards keep the aggregates). It stops after n requests, or
// once d has elapsed (whichever comes first; n ≤ 0 means unbounded,
// d ≤ 0 means no deadline — at least one bound must be set). w is not
// safe for concurrent use, so the lanes draw from it under one mutex:
// the draw sequence is w's own whatever the lane count. The deadline is
// read at each draw, so a slow route delays the stop by at most its own
// duration. The engine is closed when RunWorkload returns; read Report
// next.
func (e *Engine) RunWorkload(w Workload, n int, d time.Duration) error {
	if n <= 0 && d <= 0 {
		return fmt.Errorf("engine: RunWorkload needs a request count or a duration")
	}
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	drawn := 0
	draw := func() (Request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n > 0 && drawn >= n || d > 0 && !time.Now().Before(deadline) {
			return Request{}, false
		}
		drawn++
		return w.Next(), true
	}
	var wg sync.WaitGroup
	var err error
	for range e.cfg.Workers {
		var l *lane
		if l, err = e.acquire(0); err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req, ok := draw(); ok; req, ok = draw() {
				e.route(l, req)
			}
			e.release(l)
		}()
	}
	wg.Wait()
	e.Close()
	return err
}

// Report merges the per-lane metric shards into one report, attaching
// derived gauges (delivery rate, throughput over the active window,
// stretch percentiles scaled back to ratios, cache activity). It closes
// the engine first if the caller has not.
func (e *Engine) Report() *metrics.Report {
	e.Close()
	return e.report(metrics.MergeShards(e.shards...))
}

// LiveReport is Report without the quiesce: it merges live per-shard
// copies (metrics.MergeShardsLive) while the lanes keep routing — the
// daemon's /metrics read path. Counters are per-shard consistent;
// throughput is measured over the active window so far.
func (e *Engine) LiveReport() *metrics.Report {
	return e.report(e.LiveShard())
}

// LiveShard returns a merged deep copy of the per-lane metric shards,
// safe to take at any moment. After Close it equals the final merge.
func (e *Engine) LiveShard() *metrics.Shard {
	return metrics.MergeShardsLive(e.shards...)
}

// report derives the gauge set over an already-merged shard.
func (e *Engine) report(merged *metrics.Shard) *metrics.Report {
	rep := merged.Snapshot()
	snap := e.snap.Load()
	rep.Name = fmt.Sprintf("%s k=%d n=%d workers=%d",
		snap.alg.Name, snap.K(), snap.Store().N(), e.cfg.Workers)

	total, active := e.TotalElapsed(), e.ActiveElapsed()
	rep.Put("elapsed_total_s", total.Seconds())
	rep.Put("elapsed_active_s", active.Seconds())
	reqs := rep.Counter("requests")
	if reqs > 0 {
		rep.Put("delivery_rate", float64(rep.Counter("delivered"))/float64(reqs))
		// Throughput over the active window (first request →
		// close/now), not since New: idle warm-up must not dilute the
		// rate.
		if secs := active.Seconds(); secs > 0 {
			rep.Put("throughput_rps", float64(reqs)/secs)
		}
	}
	if h, ok := rep.Histograms["stretch_milli"]; ok {
		rep.Put("stretch_max", float64(h.Max)/1000)
		rep.Put("stretch_p99", h.P99/1000)
		rep.Put("stretch_mean", h.Mean/1000)
	}
	if cs := snap.CacheStats(); cs.Hits+cs.Misses > 0 {
		rep.Put("cache_hit_rate", cs.HitRate())
		rep.Put("cache_size", float64(cs.Size))
		rep.Put("cache_evictions", float64(cs.Evictions))
	}
	return rep
}

// RouteAll is the one-shot convenience: route reqs over snap with cfg,
// returning ordered responses and the merged metrics report. One
// goroutine per lane routes a contiguous share of reqs through the loop
// DoBatch uses. The error is always nil.
func RouteAll(snap *Snapshot, reqs []Request, cfg Config) ([]Response, *metrics.Report, error) {
	e := New(snap, cfg)
	out := make([]Response, len(reqs))
	share := (len(reqs) + e.cfg.Workers - 1) / e.cfg.Workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(reqs); lo += share {
		hi := min(lo+share, len(reqs))
		// A fresh engine is open and has an idle lane for every share.
		l, _ := e.acquire(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.routeBatch(l, reqs[lo:hi], out[lo:hi], lo)
			e.release(l)
		}()
	}
	wg.Wait()
	return out, e.Report(), nil
}
