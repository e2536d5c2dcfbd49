package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// funcSnapshot binds decide over st through NewSnapshotStore, as an
// algorithm that ignores the view cache.
func funcSnapshot(tb testing.TB, st bigraph.Store, decide route.Func) *Snapshot {
	tb.Helper()
	alg := route.Algorithm{
		Name: "test",
		MinK: func(int) int { return 1 },
		Over: func(*prep.Preprocessor) route.Func { return decide },
	}
	snap, err := NewSnapshotStore(st, 1, alg, SnapshotOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// slowSnapshot builds a snapshot over a 2-path whose routing function
// sleeps perHop before forwarding: slow routing for the deadline test.
func slowSnapshot(tb testing.TB, perHop time.Duration) *Snapshot {
	return funcSnapshot(tb, gen.Path(2), func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		time.Sleep(perHop)
		return t, nil
	})
}

// gate holds routing decisions until the test opens it: a deterministic
// way to keep lanes busy.
type gate struct {
	// entered receives one value per decision that waits at the shut
	// gate. At most one decision per lane waits, and its capacity
	// exceeds every test's lane count, so a decision never blocks on it.
	entered chan struct{}
	open    chan struct{}
	// inFlight counts the decisions in progress; peak is its maximum.
	inFlight, peak atomic.Int64
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), open: make(chan struct{})}
}

// snapshot returns a snapshot over st whose decisions wait at the gate
// while it is shut, then forward straight to the destination: a request
// is delivered when its endpoints are adjacent and errored otherwise.
func (g *gate) snapshot(tb testing.TB, st bigraph.Store) *Snapshot {
	return funcSnapshot(tb, st, func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		n := g.inFlight.Add(1)
		for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
		}
		select {
		case <-g.open:
		default:
			g.entered <- struct{}{}
			<-g.open
		}
		g.inFlight.Add(-1)
		return t, nil
	})
}

// await returns once n decisions wait at the shut gate.
func (g *gate) await(n int) {
	for range n {
		<-g.entered
	}
}

// release opens the gate for good.
func (g *gate) release() { close(g.open) }

// hold starts a Do of the one-hop request 0→1 on e in the background and
// returns the channel its error arrives on.
func hold(e *Engine) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(Request{S: 0, T: 1}, 0)
		done <- err
	}()
	return done
}

// TestThroughputUsesActiveWindow: an engine idle between New and its
// first request must not count the idle time in throughput_rps.
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
	if _, err := e.DoBatch(reqs, 0); err != nil {
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

// TestRunWorkloadDeadlineUnderBackpressure: with every lane busy on a
// slow route, the duration bound must still stop the run — each lane
// reads the clock before it draws, so no request is drawn past the
// deadline and the run ends with the last route in flight.
func TestRunWorkloadDeadlineUnderBackpressure(t *testing.T) {
	e := New(slowSnapshot(t, 300*time.Millisecond), Config{Workers: 1})
	w := Workload{
		Name: "pair",
		Next: func() Request { return Request{S: 0, T: 1} },
	}
	start := time.Now()
	if err := e.RunWorkload(w, 0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// The one lane draws at once and routes until 300ms; its next draw
	// finds the 100ms deadline passed.
	rep := e.Report()
	if got := rep.Counter("requests"); got > 1 {
		t.Fatalf("routed %d requests, want <= 1 (a request drawn past the deadline)", got)
	}
	// The run costs the one slow route; a second one (~600ms) means the
	// deadline was missed.
	if elapsed > 550*time.Millisecond {
		t.Fatalf("RunWorkload took %v, deadline not enforced at the draw", elapsed)
	}
}

// TestDoConcurrentAndSaturation covers the synchronous serving path: Do
// never interleaves responses across callers, and reports ErrSaturated
// (not a block) when every lane stays busy past the admission budget.
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

	// DoBatch keeps request order.
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

	// Saturation: hold a 1-lane engine's only lane at a gated decision,
	// then demand a lane within a finite budget.
	gt := newGate()
	slow := New(gt.snapshot(t, gen.Path(2)), Config{Workers: 1})
	held := hold(slow)
	gt.await(1)
	if _, err := slow.Do(Request{S: 0, T: 1}, 50*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Do on a saturated engine returned %v, want ErrSaturated", err)
	}
	if _, err := slow.DoBatch([]Request{{S: 0, T: 1}}, 50*time.Millisecond); !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoBatch on a saturated engine returned %v, want ErrSaturated", err)
	}
	gt.release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	slow.Close()
}
