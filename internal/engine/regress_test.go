package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// slowSnapshot builds a snapshot over a 2-path whose routing function
// sleeps perHop before forwarding — a deterministic way to keep the
// worker pool busy and the queue full.
func slowSnapshot(perHop time.Duration) *Snapshot {
	g := gen.Path(2)
	return &Snapshot{
		pre: prep.NewPreprocessor(g, 1, 0, prep.CacheOptions{}),
		alg: route.Algorithm{
			Name: "slow",
			MinK: func(int) int { return 1 },
		},
		f: func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
			time.Sleep(perHop)
			return t, nil
		},
	}
}

// TestRouteBatchStrayIndexRange: a stray Submit before a batch used to
// make the collector index out[r.Index] with the stray's global index —
// an index-out-of-range panic when it exceeds the batch length. It must
// surface as a typed *BatchIndexError instead.
func TestRouteBatchStrayIndexRange(t *testing.T) {
	g := testGraph(16)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 1})
	vs := g.Vertices()

	// First stray: consumed, so only its successor pollutes the batch.
	if err := e.Submit(Request{S: vs[0], T: vs[1]}); err != nil {
		t.Fatal(err)
	}
	if r := <-e.Results(); r.Index != 0 {
		t.Fatalf("first stray got index %d, want 0", r.Index)
	}
	// Second stray (global index 1) left in flight: with one worker it
	// reaches the batch collector first, and 1 is out of range for a
	// single-request batch.
	if err := e.Submit(Request{S: vs[1], T: vs[2]}); err != nil {
		t.Fatal(err)
	}

	_, err = e.RouteBatch([]Request{{S: vs[2], T: vs[3]}})
	var bie *BatchIndexError
	if !errors.As(err, &bie) {
		t.Fatalf("RouteBatch returned %v, want *BatchIndexError", err)
	}
	if bie.Dup || bie.Index != 1 || bie.Len != 1 {
		t.Fatalf("unexpected error detail: %+v", bie)
	}
	e.Close()
	for range e.Results() {
	}
}

// TestRouteBatchStrayIndexDup: a stray whose global index collides with
// a batch slot used to silently overwrite it (dropping one batch
// response forever). The collision must be reported.
func TestRouteBatchStrayIndexDup(t *testing.T) {
	g := testGraph(16)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 1})
	vs := g.Vertices()

	// Unconsumed stray with global index 0 — in range for the batch, so
	// the old code silently dropped batch slot 0.
	if err := e.Submit(Request{S: vs[0], T: vs[1]}); err != nil {
		t.Fatal(err)
	}
	_, err = e.RouteBatch([]Request{{S: vs[2], T: vs[3]}, {S: vs[3], T: vs[4]}})
	var bie *BatchIndexError
	if !errors.As(err, &bie) {
		t.Fatalf("RouteBatch returned %v, want *BatchIndexError", err)
	}
	if !bie.Dup || bie.Index != 0 || bie.Len != 2 {
		t.Fatalf("unexpected error detail: %+v", bie)
	}
	e.Close()
	for range e.Results() {
	}
}

// TestThroughputUsesActiveWindow: an engine idle between New and its
// first task must not count the idle time in throughput_rps.
func TestThroughputUsesActiveWindow(t *testing.T) {
	g := testGraph(20)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 2})
	idle := 150 * time.Millisecond
	time.Sleep(idle)

	w := Uniform(rand.New(rand.NewSource(3)), g)
	reqs := Take(w, 64)
	if _, err := e.RouteBatch(reqs); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()

	total := rep.Gauge("elapsed_total_s")
	active := rep.Gauge("elapsed_active_s")
	if total < idle.Seconds() {
		t.Fatalf("elapsed_total_s = %v, want >= %v", total, idle.Seconds())
	}
	if active <= 0 || active > total-0.9*idle.Seconds() {
		t.Fatalf("elapsed_active_s = %v must exclude the %v idle warm-up (total %v)", active, idle, total)
	}
	rps := rep.Gauge("throughput_rps")
	if want := float64(len(reqs)) / active; math.Abs(rps-want) > 1e-6*want {
		t.Fatalf("throughput_rps = %v, want reqs/active = %v", rps, want)
	}
	if lazy := float64(len(reqs)) / total; rps <= lazy {
		t.Fatalf("throughput_rps = %v not above the wall-clock-diluted rate %v", rps, lazy)
	}
}

// TestRunWorkloadDeadlineUnderBackpressure: with the queue held full by
// slow routing, the duration bound must be enforced around the blocking
// submit — the old code blocked in Submit past the deadline and accepted
// an extra request once a slot freed.
func TestRunWorkloadDeadlineUnderBackpressure(t *testing.T) {
	snap := slowSnapshot(300 * time.Millisecond)
	e := New(snap, Config{Workers: 1, QueueDepth: 1})
	w := Workload{
		Name: "pair",
		Next: func() Request { return Request{S: 0, T: 1} },
	}
	start := time.Now()
	if err := e.RunWorkload(w, 0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Pipeline capacity at the deadline: one request in flight plus one
	// queued. The third submit must be abandoned when the timer fires,
	// not block until a slot frees (which would admit it post-deadline).
	rep := e.Report()
	if got := rep.Counter("requests"); got > 2 {
		t.Fatalf("accepted %d requests, want <= 2 (submit admitted past the deadline)", got)
	}
	// Drain cost is the two admitted slow routes; the old behaviour adds
	// a third (~900ms total).
	if elapsed > 750*time.Millisecond {
		t.Fatalf("RunWorkload took %v, deadline not enforced around blocking submit", elapsed)
	}
}

// TestDoConcurrentAndSaturation covers the synchronous serving path: Do
// never interleaves responses across callers, and reports ErrSaturated
// (not a block) when the queue stays full past the admission budget.
func TestDoConcurrentAndSaturation(t *testing.T) {
	g := testGraph(20)
	snap, err := NewSnapshotStore(g, 0, route.Algorithm2(), SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(snap, Config{Workers: 4})
	vs := g.Vertices()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		req := Request{S: vs[i%len(vs)], T: vs[(i+7)%len(vs)]}
		go func(req Request) {
			resp, err := e.Do(req, 0)
			if err == nil && resp.Request != req {
				err = errors.New("response for a different request")
			}
			if err == nil && resp.Result.Outcome != sim.Delivered {
				err = errors.New("undelivered")
			}
			done <- err
		}(req)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// DoBatch keeps request order even though workers finish out of order.
	w := Uniform(rand.New(rand.NewSource(9)), g)
	reqs := Take(w, 40)
	resps, err := e.DoBatch(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Request != reqs[i] {
			t.Fatalf("batch slot %d holds request %+v, want %+v", i, r.Request, reqs[i])
		}
	}
	e.Close()

	// Saturation: clog a 1-worker/1-slot pipeline (nobody consumes
	// Results), then demand admission within a finite budget.
	slow := New(slowSnapshot(2*time.Millisecond), Config{Workers: 1, QueueDepth: 1})
	for i := 0; i < 3; i++ { // in-flight + out buffer + queue slot
		if err := slow.Submit(Request{S: 0, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := slow.Do(Request{S: 0, T: 1}, 50*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Do on a saturated engine returned %v, want ErrSaturated", err)
	}
	if _, err := slow.DoBatch([]Request{{S: 0, T: 1}}, 50*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoBatch on a saturated engine returned %v, want ErrSaturated", err)
	}
	for i := 0; i < 3; i++ {
		<-slow.Results()
	}
	slow.Close()
}
