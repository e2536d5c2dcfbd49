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
	// Index is the submission index (batch position for RouteBatch).
	Index int
	// Worker identifies the worker that routed the request.
	Worker int
	// Result is the full simulation result.
	Result *sim.Result
	// Latency is the wall time the worker spent routing the request.
	Latency time.Duration
}

// Config tunes an Engine.
type Config struct {
	// Workers is the routing worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the request queue; Submit blocks while the queue
	// is full, which is the engine's backpressure (0 = 4 × Workers).
	QueueDepth int
	// MaxSteps bounds each walk (0 = sim's default budget).
	MaxSteps int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return c
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// ErrSaturated is returned by Do and DoBatch when the bounded request
// queue stays full past the caller's admission budget — the signal the
// serving layer turns into HTTP 429.
var ErrSaturated = errors.New("engine: queue saturated past admission budget")

// BatchIndexError is returned by RouteBatch when a response carries an
// index the batch cannot hold — the symptom of a stray Submit (or a
// second concurrent batch) violating RouteBatch's exclusive-use
// contract. The batch result is unusable; the engine's queue may still
// hold responses for the displaced slots.
type BatchIndexError struct {
	// Index is the offending response index.
	Index int
	// Len is the batch length.
	Len int
	// Dup reports that the slot was already filled by an earlier
	// response rather than out of range.
	Dup bool
}

func (e *BatchIndexError) Error() string {
	if e.Dup {
		return fmt.Sprintf("engine: batch response index %d filled twice (batch of %d): stray Submit interleaved with RouteBatch", e.Index, e.Len)
	}
	return fmt.Sprintf("engine: batch response index %d out of range (batch of %d): stray Submit interleaved with RouteBatch", e.Index, e.Len)
}

type task struct {
	req   Request
	index int
	// done, when non-nil, receives the response instead of the shared
	// Results channel (the synchronous Do/DoBatch path). It must have
	// capacity for every task that shares it so workers never block.
	done chan Response
}

// Engine routes requests concurrently over one Snapshot using a fixed
// worker pool. Requests enter through a bounded queue (Submit blocks when
// it is full); every worker records into its own metrics shard, so the
// hot path takes no shared locks (the snapshot's view cache is
// lock-free). An Engine is a single session: use it, Close it, read
// Report.
type Engine struct {
	// snap is the snapshot the workers route over, behind an atomic
	// pointer so SwapSnapshot can hot-swap topology epochs mid-traffic:
	// each task loads the pointer once and routes entirely on that
	// epoch's consistent (graph, views) pair.
	snap atomic.Pointer[Snapshot]
	cfg  Config

	tasks chan task
	out   chan Response
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	nextIdx atomic.Int64
	shards  []*metrics.Shard
	started time.Time
	// firstAt is the wall clock of the first accepted task (unix nanos,
	// 0 until then): the start of the active window. Throughput is
	// reqs / elapsed_active, so an engine that sits idle between New and
	// its first task does not under-report.
	firstAt atomic.Int64
	// closedNano is the wall clock at which the pool finished draining
	// (unix nanos, 0 while running).
	closedNano atomic.Int64
}

// New starts an engine over snap. The returned engine is running: submit
// requests, consume Results, then Close.
func New(snap *Snapshot, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		tasks:   make(chan task, cfg.QueueDepth),
		out:     make(chan Response, cfg.QueueDepth),
		shards:  make([]*metrics.Shard, cfg.Workers),
		started: time.Now(),
	}
	e.snap.Store(snap)
	for w := 0; w < cfg.Workers; w++ {
		e.shards[w] = metrics.NewShard()
		e.wg.Add(1)
		go e.worker(w)
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Snapshot returns the snapshot the engine currently routes over.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SwapSnapshot atomically replaces the snapshot the workers route over
// and returns the previous one. In-flight requests finish on the
// snapshot they loaded; requests picked up after the swap route on
// next. The caller is responsible for next being a binding of the same
// algorithm family it wants reported (the report reads the current
// snapshot's descriptor).
func (e *Engine) SwapSnapshot(next *Snapshot) *Snapshot {
	return e.snap.Swap(next)
}

// worker routes tasks until the queue closes, recording into its own
// metric shard. Each worker owns one sim.Scratch for its whole lifetime,
// so the warm routing path allocates only the Response's retained copy
// of the scratch-owned Result.
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	sh := e.shards[w]
	sc := sim.NewScratch()
	for tk := range e.tasks {
		start := time.Now()
		res := e.snap.Load().RouteScratch(tk.req.S, tk.req.T, e.cfg.MaxSteps, sc)
		lat := time.Since(start)

		sh.Count("requests", 1)
		sh.Observe("latency_ns", lat.Nanoseconds())
		switch res.Outcome {
		case sim.Delivered:
			sh.Count("delivered", 1)
			sh.Observe("hops", int64(res.Len()))
			if res.Dist > 0 {
				// Stretch recorded in milli-units so the log-scale
				// buckets resolve the 1.0–7.0 range the theorems bound.
				sh.Observe("stretch_milli", int64(res.Dilation()*1000+0.5))
			}
		case sim.Looped:
			sh.Count("looped", 1)
		case sim.Errored:
			sh.Count("errored", 1)
		case sim.Exhausted:
			sh.Count("exhausted", 1)
		}

		// The scratch owns res and the next task overwrites it; the
		// response escapes to channels and callers, so it carries an
		// independent copy.
		resp := Response{Request: tk.req, Index: tk.index, Worker: w, Result: res.Clone(), Latency: lat}
		if tk.done != nil {
			tk.done <- resp
		} else {
			e.out <- resp
		}
	}
}

// Submit enqueues one request, blocking while the queue is full
// (backpressure). It fails with ErrClosed after Close.
func (e *Engine) Submit(req Request) error {
	idx := int(e.nextIdx.Add(1) - 1)
	return e.submit(task{req: req, index: idx})
}

func (e *Engine) submit(tk task) error {
	return e.submitOn(tk, nil)
}

// submitOn enqueues tk, giving up with ErrSaturated when expire fires
// before a queue slot frees (nil expire blocks indefinitely).
func (e *Engine) submitOn(tk task, expire <-chan time.Time) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	// Sending under RLock is safe: Close waits for in-flight senders,
	// and workers keep draining until the queue closes, so every
	// blocked send completes.
	if expire == nil {
		//klocal:allow safe by protocol: Close waits for in-flight senders and workers drain until the queue closes
		e.tasks <- tk
	} else {
		//klocal:allow same protocol as the unconditional send above
		select {
		case e.tasks <- tk:
		case <-expire:
			return ErrSaturated
		}
	}
	e.markActive()
	return nil
}

// markActive starts the active-window clock at the first accepted task.
func (e *Engine) markActive() {
	if e.firstAt.Load() == 0 {
		e.firstAt.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// doneChans pools completion channels for Do: capacity-1 channels whose
// single response was always consumed before release, so a reused
// channel is provably empty.
var doneChans = sync.Pool{New: func() any { return make(chan Response, 1) }}

// batchChans pools completion channels for DoBatch. Channels keep their
// creation capacity, so get discards pooled channels too small for the
// batch at hand and allocates with headroom; steady-state serving traffic
// converges on the largest batch size seen.
var batchChans sync.Pool

func getBatchChan(n int) chan Response {
	if c, _ := batchChans.Get().(chan Response); c != nil && cap(c) >= n {
		return c
	}
	return make(chan Response, n+n/2)
}

// timers pools admission-budget timers across Do/DoBatch/RunWorkload
// calls. putTimer's stop-and-drain leaves the channel provably empty, so
// Reset on reuse is race-free.
var timers sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if tm, _ := timers.Get().(*time.Timer); tm != nil {
		tm.Reset(d)
		return tm
	}
	return time.NewTimer(d)
}

func putTimer(tm *time.Timer) {
	if !tm.Stop() {
		// Already fired: the tick may or may not have been consumed.
		select {
		case <-tm.C:
		default:
		}
	}
	timers.Put(tm)
}

// Do routes one request synchronously through the worker pool: it
// enqueues the request (waiting at most budget for a queue slot when
// budget > 0 — ErrSaturated past it, the admission-control signal) and
// blocks until the response arrives. Unlike Submit/Results, Do is safe
// for arbitrary concurrent callers: each call has a private completion
// channel, so responses never interleave.
func (e *Engine) Do(req Request, budget time.Duration) (Response, error) {
	done := doneChans.Get().(chan Response)
	tk := task{req: req, index: int(e.nextIdx.Add(1) - 1), done: done}
	var expire <-chan time.Time
	if budget > 0 {
		tm := getTimer(budget)
		defer putTimer(tm)
		expire = tm.C
	}
	if err := e.submitOn(tk, expire); err != nil {
		// Nothing was enqueued, so the channel is still empty.
		doneChans.Put(done)
		return Response{}, err
	}
	// Every accepted task is routed: workers drain the queue until it
	// closes, and done has capacity 1, so this receive always completes —
	// and empties the channel for the pool.
	r := <-done
	doneChans.Put(done)
	return r, nil
}

// DoBatch routes reqs concurrently through the worker pool and returns
// the responses in request order. Like Do it is safe for concurrent
// callers. budget bounds the total queue-admission wait for the whole
// batch (0 blocks); on ErrSaturated the already-admitted prefix is still
// routed (and counted by the metrics shards) but no responses are
// returned.
func (e *Engine) DoBatch(reqs []Request, budget time.Duration) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// Capacity for the full batch: workers never block sending here,
	// even when admission fails partway.
	done := getBatchChan(len(reqs))
	var expire <-chan time.Time
	if budget > 0 {
		tm := getTimer(budget)
		defer putTimer(tm)
		expire = tm.C
	}
	admitted := 0
	var err error
	for i, req := range reqs {
		if err = e.submitOn(task{req: req, index: i, done: done}, expire); err != nil {
			break
		}
		admitted++
	}
	if err != nil {
		// The admitted prefix is still in flight toward done. Receive
		// exactly that many responses before releasing the channel: a
		// pooled channel with stragglers would deliver them to a later,
		// unrelated batch (lost here, duplicated there).
		for i := 0; i < admitted; i++ {
			<-done
		}
		batchChans.Put(done)
		return nil, err
	}
	out := make([]Response, len(reqs))
	for i := 0; i < admitted; i++ {
		r := <-done
		out[r.Index] = r
	}
	batchChans.Put(done)
	return out, nil
}

// Results streams responses as workers finish them (completion order,
// not submission order). The channel closes after Close once every
// in-flight request has been reported.
func (e *Engine) Results() <-chan Response { return e.out }

// Close stops intake, waits for in-flight requests to finish, and closes
// Results. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.tasks)
	e.mu.Unlock()
	e.wg.Wait()
	e.closedNano.Store(time.Now().UnixNano())
	close(e.out)
}

// TotalElapsed is the wall time since New (up to Close once closed).
func (e *Engine) TotalElapsed() time.Duration {
	if c := e.closedNano.Load(); c > 0 {
		return time.Duration(c - e.started.UnixNano())
	}
	return time.Since(e.started)
}

// ActiveElapsed is the wall time since the first accepted task (up to
// Close once closed), i.e. the window throughput is measured over. Zero
// before any task is accepted.
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

// RouteBatch submits every request and returns responses in request
// order. It requires exclusive use of the engine (no concurrent Submit
// or Results consumers) and may be called repeatedly before Close. If a
// stray Submit's response interleaves with the batch — an index the
// batch cannot hold, or one slot answered twice — RouteBatch returns a
// *BatchIndexError instead of panicking; the engine should be Closed,
// as displaced responses may still be in flight. (Concurrent servers
// should use Do/DoBatch, which are immune by construction.)
func (e *Engine) RouteBatch(reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	var idxErr error
	var collect sync.WaitGroup
	collect.Add(1)
	go func() {
		defer collect.Done()
		seen := make([]bool, len(reqs))
		// Always consume exactly len(reqs) responses so blocked workers
		// and submitters are never deadlocked by an early abort.
		for i := 0; i < len(reqs); i++ {
			r, ok := <-e.out
			if !ok {
				return
			}
			switch {
			case r.Index < 0 || r.Index >= len(reqs):
				if idxErr == nil {
					idxErr = &BatchIndexError{Index: r.Index, Len: len(reqs)}
				}
			case seen[r.Index]:
				if idxErr == nil {
					idxErr = &BatchIndexError{Index: r.Index, Len: len(reqs), Dup: true}
				}
			default:
				seen[r.Index] = true
				out[r.Index] = r
			}
		}
	}()
	var submitErr error
	for i, req := range reqs {
		if err := e.submit(task{req: req, index: i}); err != nil {
			submitErr = err
			break
		}
	}
	if submitErr != nil {
		// Intake failed mid-batch; drain what was accepted.
		e.Close()
	}
	collect.Wait()
	if submitErr != nil {
		return nil, submitErr
	}
	if idxErr != nil {
		return nil, idxErr
	}
	return out, nil
}

// RunWorkload draws requests from w and routes them, discarding
// individual responses (the metrics shards keep the aggregates). It
// stops after n requests, or when d elapses (whichever comes first;
// n ≤ 0 means unbounded, d ≤ 0 means no deadline — at least one bound
// must be set). The deadline is enforced around the blocking submit
// itself, so a queue held full by slow routing cannot stall the run
// past d. The engine is closed when RunWorkload returns; read Report
// next.
func (e *Engine) RunWorkload(w Workload, n int, d time.Duration) error {
	if n <= 0 && d <= 0 {
		return fmt.Errorf("engine: RunWorkload needs a request count or a duration")
	}
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for range e.out {
		}
	}()
	var expire <-chan time.Time
	if d > 0 {
		tm := getTimer(d)
		defer putTimer(tm)
		expire = tm.C
	}
	var err error
loop:
	for i := 0; n <= 0 || i < n; i++ {
		tk := task{req: w.Next(), index: int(e.nextIdx.Add(1) - 1)}
		switch serr := e.submitOn(tk, expire); {
		case serr == ErrSaturated:
			// Deadline fired while waiting for a queue slot: a normal
			// duration-bounded stop, not a failure.
			break loop
		case serr != nil:
			err = serr
			break loop
		}
		if expire != nil {
			// The submit may have won a race against an already-expired
			// timer; honour the deadline before drawing the next request.
			select {
			case <-expire:
				break loop
			default:
			}
		}
	}
	e.Close()
	drain.Wait()
	return err
}

// Report merges the per-worker metric shards into one report, attaching
// derived gauges (delivery rate, throughput over the active window,
// stretch percentiles scaled back to ratios, cache activity). It closes
// the engine first if the caller has not.
func (e *Engine) Report() *metrics.Report {
	e.Close()
	return e.report(metrics.MergeShards(e.shards...))
}

// LiveReport is Report without the quiesce: it merges live per-shard
// copies (metrics.MergeShardsLive) while the workers keep routing — the
// daemon's /metrics read path. Counters are per-shard consistent;
// throughput is measured over the active window so far.
func (e *Engine) LiveReport() *metrics.Report {
	return e.report(e.LiveShard())
}

// LiveShard returns a merged deep copy of the per-worker metric shards,
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
		// Throughput over the active window (first task → close/now),
		// not since New: idle warm-up must not dilute the rate.
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
// returning ordered responses and the merged metrics report.
func RouteAll(snap *Snapshot, reqs []Request, cfg Config) ([]Response, *metrics.Report, error) {
	e := New(snap, cfg)
	out, err := e.RouteBatch(reqs)
	if err != nil {
		return nil, nil, err
	}
	return out, e.Report(), nil
}
