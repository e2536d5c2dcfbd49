package klocal_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"klocal"
)

// Scale benchmarks for the CSR graph store: routing throughput and
// store footprint on grids from 10^4 to 10^6 vertices, served the way
// klocald serves them — streamed to a binary .csr file, mmap'd back,
// and routed store-backed under a Zipf workload. `make bench-scale`
// runs these and emits BENCH_scale.json.
//
// k is fixed and small: the paper's thresholds are Θ(n), so at these
// sizes the threshold view would be the whole graph. The benchmarks
// measure the store and engine in the regime the scale path targets —
// bounded views over a topology that never materializes as a map-based
// graph. Delivery is therefore best-effort (Zipf-adjacent pairs
// deliver, far pairs fail fast at the step budget); the throughput
// number counts routed requests either way.

const scaleK = 8

// scaleSides are the grid side lengths: 10^4, ~10^5, 10^6 vertices.
var scaleSides = []int{100, 317, 1000}

// openScaleCSR streams a side×side grid into a .csr file and maps it
// back — the full on-disk round trip, not just an in-memory build.
func openScaleCSR(b *testing.B, side int) *klocal.CSR {
	b.Helper()
	c, err := klocal.GridCSR(side, side)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "grid.csr")
	if err := c.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	m, err := klocal.LoadGraphFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m
}

// BenchmarkScaleGridZipf is the headline scale number: store-backed
// routing throughput (msgs/sec) and store footprint (bytes/vertex) per
// size. Each iteration routes one Zipf batch through a fresh engine
// over a shared snapshot, so the first iteration pays the cold view
// cache and later ones measure steady-state serving.
func BenchmarkScaleGridZipf(b *testing.B) {
	const batch = 512
	for _, side := range scaleSides {
		c := openScaleCSR(b, side)
		n := c.N()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			snap, err := klocal.NewSnapshotStore(c, scaleK, klocal.Algorithm2(), klocal.SnapshotOptions{})
			if err != nil {
				b.Fatal(err)
			}
			// A steeper-than-default skew keeps endpoint mass near the grid
			// corner at n=10^6, so the batch exercises both the delivery
			// path (adjacent pairs) and the fail-fast path (far pairs).
			reqs := klocal.TakeRequests(klocal.ZipfWorkload(klocal.NewRand(1), c, 1.5), batch)
			delivered := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := klocal.RouteAll(snap, reqs,
					klocal.EngineConfig{MaxSteps: 2 * scaleK})
				if err != nil {
					b.Fatal(err)
				}
				delivered = rep.Counter("delivered")
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
			b.ReportMetric(float64(c.Bytes())/float64(n), "bytes/vertex")
			b.ReportMetric(float64(delivered)/float64(batch), "deliveryRate")
		})
	}
}

// BenchmarkScaleExtract measures the raw G_k(u) primitive under the
// same sizes: mmap'd CSR, zero-allocation scratch extraction at Zipf
// sources (views/sec; the alloc gate in internal/bigraph pins this path
// to 0 allocs/op).
func BenchmarkScaleExtract(b *testing.B) {
	for _, side := range scaleSides {
		c := openScaleCSR(b, side)
		n := c.N()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := klocal.NewCSRScratch()
			z := klocal.ZipfWorkload(klocal.NewRand(2), c, 0)
			srcs := klocal.TakeRequests(z, 1024)
			// One warm call sizes the scratch's epoch arrays to n; every
			// timed extraction after that is allocation-free.
			if err := c.Extract(srcs[0].S, scaleK, sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Extract(srcs[i%len(srcs)].S, scaleK, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "views/sec")
			b.ReportMetric(float64(c.Bytes())/float64(n), "bytes/vertex")
		})
	}
}
