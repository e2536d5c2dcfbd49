package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/churn"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/serve"
)

// runChurnSmoke is the dependency-free `make churn-smoke` body: boot
// the daemon on a loopback port, keep routing traffic flowing, and
// PATCH a stream of topology deltas underneath it. The flaps toggle
// chords on a cycle, so the graph stays connected throughout and every
// route must keep delivering. The smoke asserts the incremental path's
// whole contract over HTTP: the epoch advances per batch, each delta's
// dirty set stays strictly local (≪ n), traffic never sees an error
// mid-swap, and the final topology routes exactly like a from-scratch
// snapshot of a client-side mirror graph.
func runChurnSmoke(drain time.Duration) error {
	const (
		size  = 64
		k     = 3
		flaps = 30
	)
	start := time.Now()
	cfg := serve.Config{
		Graph:      serve.GraphSpec{Kind: "cycle", Size: size},
		K:          k,
		Algorithms: []string{"alg2"},
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	//klocal:allow churn-smoke server; the run closes the listener on return, unblocking Serve
	go func() { errc <- hs.Serve(ln) }()
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("churn-smoke: daemon on %s (cycle n=%d, k=%d)\n", base, size, k)

	do := func(method, path string, payload, into any) error {
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, raw)
		}
		return json.Unmarshal(raw, into)
	}

	// Background traffic: pairs at distance ≤ k, full tilt. k sits far
	// below the threshold T(64), so only in-view destinations carry the
	// delivery guarantee — and chord flaps can only shorten distances,
	// never push these pairs out of view. Every response must deliver.
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		routed   atomic.Int64
		trafficE atomic.Value
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				pair := serve.RouteRequest{
					S: graph.Vertex(i % size),
					T: graph.Vertex((i + k) % size),
				}
				var rr serve.RouteReply
				if err := do("POST", "/route", pair, &rr); err != nil {
					trafficE.Store(err)
					return
				}
				if !rr.Delivered {
					trafficE.Store(fmt.Errorf("route %d->%d failed mid-churn: %s", pair.S, pair.T, rr.Outcome))
					return
				}
				routed.Add(1)
			}
		}(w)
	}

	// Flap chords while the traffic runs, mirroring every applied batch
	// on a client-side copy of the topology.
	var g0 serve.GraphReply
	if err := do("GET", "/graph", nil, &g0); err != nil {
		return err
	}
	mirror, err := cfg.Graph.Build()
	if err != nil {
		return err
	}
	epoch := g0.Epoch
	maxDirty := 0
	for i := 0; i < flaps; i++ {
		// Each even step adds a chord; the following odd step removes
		// that same chord, so the cycle's connectivity never breaks.
		u := graph.Vertex(((i - i%2) * 7) % size)
		v := graph.Vertex((int(u) + size/2) % size)
		op, cop := "add-edge", churn.AddEdge
		if i%2 == 1 {
			op, cop = "remove-edge", churn.RemoveEdge
		}
		var dr serve.DeltaReply
		if err := do("PATCH", "/graph", serve.DeltaRequest{
			Deltas: []serve.DeltaSpec{{Op: op, U: u, V: v}},
		}, &dr); err != nil {
			return err
		}
		if dr.Epoch != epoch+1 {
			return fmt.Errorf("flap %d: epoch %d, want %d", i, dr.Epoch, epoch+1)
		}
		epoch = dr.Epoch
		if dr.Dirty <= 0 || dr.Dirty >= dr.N {
			return fmt.Errorf("flap %d: dirty set %d of n=%d is not strictly local", i, dr.Dirty, dr.N)
		}
		if dr.Dirty > maxDirty {
			maxDirty = dr.Dirty
		}
		if mirror, _, err = churn.ApplyAll(mirror, []churn.Delta{{Op: cop, U: u, V: v}}, k); err != nil {
			return fmt.Errorf("flap %d: mirror diverged: %w", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err, ok := trafficE.Load().(error); ok && err != nil {
		return err
	}
	fmt.Printf("churn-smoke: %d flaps applied under %d routed requests, max dirty set %d of %d vertices\n",
		flaps, routed.Load(), maxDirty, size)

	// The daemon's final topology must route exactly like a fresh
	// snapshot of the mirror: same delivery, same hop count. In-view
	// pairs (distance ≤ k) carry the guarantee on both sides.
	snap, err := engine.NewSnapshotStore(mirror, k, route.Algorithm2(), engine.SnapshotOptions{})
	if err != nil {
		return err
	}
	for s0 := 0; s0 < size; s0 += 13 {
		pair := serve.RouteRequest{S: graph.Vertex(s0), T: graph.Vertex((s0 + k) % size)}
		var rr serve.RouteReply
		if err := do("POST", "/route", pair, &rr); err != nil {
			return err
		}
		want := snap.Route(pair.S, pair.T, 0)
		if !rr.Delivered || rr.Hops != want.Len() {
			return fmt.Errorf("post-churn route %d->%d: daemon (%v, %d hops) vs mirror snapshot (%v, %d hops)",
				pair.S, pair.T, rr.Delivered, rr.Hops, want.Outcome, want.Len())
		}
		if rr.Epoch != epoch {
			return fmt.Errorf("post-churn route reports epoch %d, want %d", rr.Epoch, epoch)
		}
	}
	fmt.Printf("churn-smoke: daemon routes match a from-scratch mirror snapshot at epoch %d\n", epoch)

	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Printf("churn-smoke: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
