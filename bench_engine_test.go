package klocal_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klocal"
)

// Benchmarks for the traffic engine: batched concurrent routing over an
// immutable snapshot. `make bench` runs these and emits BENCH_engine.json.

// benchSnapshot binds Algorithm 2 at threshold on the standard lollipop
// instance, prewarmed so the benchmark measures routing, not
// preprocessing (BenchmarkEngineCacheColdVsWarm measures that split).
func benchSnapshot(b *testing.B, n int) *klocal.Snapshot {
	b.Helper()
	g := klocal.Lollipop(n-n/3, n/3)
	snap, err := klocal.NewSnapshotStore(g, 0, klocal.Algorithm2(), klocal.SnapshotOptions{Prewarm: -1})
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkEngineThroughput measures routed messages per second as the
// worker-pool size grows. Submission is concurrent — one DoBatch
// submitter goroutine per worker, each owning a partition of the batch —
// so the measurement exercises the pool, not a single submitter's feed
// rate (the old RouteBatch harness fed the queue from one goroutine and
// collected from another, which serialized the run and reported flat
// scaling regardless of pool size). Throughput is computed over the
// engines' active windows (first accepted task → close), not b.Elapsed,
// so per-iteration engine construction is not billed as routing time.
func BenchmarkEngineThroughput(b *testing.B) {
	const batch = 2048
	snap := benchSnapshot(b, 48)
	reqs := klocal.TakeRequests(klocal.UniformWorkload(klocal.NewRand(1), snap.Graph()), batch)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var active time.Duration
			for i := 0; i < b.N; i++ {
				eng := klocal.NewEngine(snap, klocal.EngineConfig{Workers: workers})
				share := (batch + workers - 1) / workers
				var wg sync.WaitGroup
				var delivered atomic.Int64
				for lo := 0; lo < batch; lo += share {
					hi := lo + share
					if hi > batch {
						hi = batch
					}
					part := reqs[lo:hi]
					wg.Add(1)
					go func() {
						defer wg.Done()
						out, err := eng.DoBatch(part, 0)
						if err != nil {
							b.Error(err)
							return
						}
						for j := range out {
							if out[j].Result.Outcome == klocal.Delivered {
								delivered.Add(1)
							}
						}
					}()
				}
				wg.Wait()
				eng.Close()
				active += eng.ActiveElapsed()
				if delivered.Load() != batch {
					b.Fatalf("delivered %d of %d", delivered.Load(), batch)
				}
			}
			msgs := float64(batch) * float64(b.N)
			b.ReportMetric(msgs/active.Seconds(), "msgs/sec")
			b.ReportMetric(0, "ns/op") // msgs/sec is the headline number
		})
	}
}

// BenchmarkEngineCacheColdVsWarm splits the cost of a batch into the
// preprocessing it amortizes (cold: every snapshot rebuilt, views
// computed on demand during routing) versus steady-state serving (warm:
// one prewarmed snapshot reused).
func BenchmarkEngineCacheColdVsWarm(b *testing.B) {
	const batch = 512
	g := klocal.Lollipop(32, 16)
	reqs := klocal.TakeRequests(klocal.UniformWorkload(klocal.NewRand(2), g), batch)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap, err := klocal.NewSnapshotStore(g, 0, klocal.Algorithm2(), klocal.SnapshotOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := klocal.RouteAll(snap, reqs, klocal.EngineConfig{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	})
	b.Run("warm", func(b *testing.B) {
		snap, err := klocal.NewSnapshotStore(g, 0, klocal.Algorithm2(), klocal.SnapshotOptions{Prewarm: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := klocal.RouteAll(snap, reqs, klocal.EngineConfig{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	})
}

// BenchmarkEngineWorkloads compares the traffic shapes the engine
// serves: Zipf-skewed traffic hits the view cache hardest, adversarial
// traffic routes the Theorem 4 worst case.
func BenchmarkEngineWorkloads(b *testing.B) {
	const batch = 1024
	snap := benchSnapshot(b, 48)
	g := snap.Graph()
	shapes := []struct {
		name string
		w    klocal.TrafficWorkload
	}{
		{"uniform", klocal.UniformWorkload(klocal.NewRand(3), g)},
		{"zipf", klocal.ZipfWorkload(klocal.NewRand(3), g, 0)},
		{"allpairs", klocal.AllPairsWorkload(g)},
	}
	for _, shape := range shapes {
		reqs := klocal.TakeRequests(shape.w, batch)
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := klocal.RouteAll(snap, reqs, klocal.EngineConfig{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
	b.Run("adversarial", func(b *testing.B) {
		n := 48
		k := klocal.MinK1(n)
		ag, aw, err := klocal.AdversarialWorkload(n, k)
		if err != nil {
			b.Fatal(err)
		}
		asnap, err := klocal.NewSnapshotStore(ag, k, klocal.Algorithm1(), klocal.SnapshotOptions{Prewarm: -1})
		if err != nil {
			b.Fatal(err)
		}
		reqs := klocal.TakeRequests(aw, 64)
		b.ResetTimer()
		var worst float64
		for i := 0; i < b.N; i++ {
			_, rep, err := klocal.RouteAll(asnap, reqs, klocal.EngineConfig{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			worst = rep.Gauge("stretch_max")
		}
		b.ReportMetric(worst, "worstStretch")
	})
}
