package klocal_test

import (
	"io"
	"testing"

	"klocal"
)

// Benchmarks regenerating the paper's tables and figures. Each bench runs
// the full experiment behind the corresponding table/figure; custom
// metrics report the headline numbers so `go test -bench .` doubles as a
// reproduction report.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := klocal.NewRand(1)
		res, err := klocal.Table1(rng, 23, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.Positive.AllDelivered() || row.StrategiesDefeated != row.StrategiesTotal {
				b.Fatalf("Table 1 row %q does not reproduce", row.Mode)
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	var worst1, worst2, worst3 float64
	for i := 0; i < b.N; i++ {
		rng := klocal.NewRand(2)
		res, err := klocal.Table2(rng, 24, 2)
		if err != nil {
			b.Fatal(err)
		}
		worst1 = res.Rows[0].WorkloadWorst
		worst2 = res.Rows[2].WorkloadWorst
		worst3 = res.Rows[3].WorkloadWorst
	}
	b.ReportMetric(worst1, "worstDilation/alg1")
	b.ReportMetric(worst2, "worstDilation/alg2")
	b.ReportMetric(worst3, "worstDilation/alg3")
}

func BenchmarkTable2LowerBound(b *testing.B) {
	// Theorem 4 / Figure 6: the adversary path where the bound 2n−3k−1 is
	// attained exactly.
	n := 64
	k := klocal.MinK1(n)
	inst, err := klocal.DilationPath(n, k)
	if err != nil {
		b.Fatal(err)
	}
	alg := klocal.Algorithm1()
	b.ResetTimer()
	var dil float64
	for i := 0; i < b.N; i++ {
		res := klocal.Route(alg, inst.G, k, inst.S, inst.T)
		if res.Len() != 2*n-3*k-1 {
			b.Fatalf("route %d != bound %d", res.Len(), 2*n-3*k-1)
		}
		dil = res.Dilation()
	}
	b.ReportMetric(dil, "dilation")
	b.ReportMetric(klocal.LowerBoundDilation(n, k), "S(k)")
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := klocal.Table3(31)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Replay.EveryStrategyDefeated() {
			b.Fatal("Table 3 does not reproduce")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := klocal.Table4(29)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Replay.EveryStrategyDefeated() {
			b.Fatal("Table 4 does not reproduce")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := klocal.Fig7(12, 5, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome == klocal.Delivered || res.SawT || !res.TreeDelivered {
			b.Fatal("Figure 7 does not reproduce")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	var dil float64
	for i := 0; i < b.N; i++ {
		res, err := klocal.Fig13([]int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.RouteLen != p.PaperLen {
				b.Fatalf("Fig 13 route %d != 2n-k-3 = %d", p.RouteLen, p.PaperLen)
			}
		}
		dil = res.Points[len(res.Points)-1].Dilation
	}
	b.ReportMetric(dil, "dilation(n=64)")
}

func BenchmarkFig17(b *testing.B) {
	var dil float64
	for i := 0; i < b.N; i++ {
		res, err := klocal.Fig17([]int{7, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range res.Points {
			if p.RouteLen != p.ExpectLen {
				b.Fatalf("Fig 17 route %d != n+2k-6-2δ* = %d", p.RouteLen, p.ExpectLen)
			}
			if a1 := res.Alg1Points[j]; a1.RouteLen != a1.PaperLen {
				b.Fatalf("Fig 17 companion route %d != n+2k = %d", a1.RouteLen, a1.PaperLen)
			}
		}
		dil = res.Points[len(res.Points)-1].Dilation
	}
	b.ReportMetric(dil, "dilation(n=64)")
}

func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := klocal.NewRand(3)
		res, err := klocal.Sweep(rng, 12, 1, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		var sink io.Writer = io.Discard
		res.Render(sink)
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

func BenchmarkAblationAlg1VsAlg1B(b *testing.B) {
	// How much route length does the U2 pre-emption save on its target
	// family? (Lemma 14 guarantees it never costs anything.)
	k := 16
	f, err := klocal.NewFig17(4*k, k)
	if err != nil {
		b.Fatal(err)
	}
	a1 := klocal.Algorithm1()
	a1b := klocal.Algorithm1B()
	b.ResetTimer()
	var l1, l1b int
	for i := 0; i < b.N; i++ {
		l1 = klocal.Route(a1, f.G, k, f.S, f.T).Len()
		l1b = klocal.Route(a1b, f.G, k, f.S, f.T).Len()
	}
	b.ReportMetric(float64(l1), "routeLen/alg1")
	b.ReportMetric(float64(l1b), "routeLen/alg1b")
	b.ReportMetric(float64(l1-l1b), "savedEdges")
}

func BenchmarkAblationPreprocessScope(b *testing.B) {
	// Cost of the dormant-edge classification versus the raw
	// neighbourhood extraction it extends.
	g := klocal.RandomConnected(klocal.NewRand(4), 64, 0.08)
	k := klocal.MinK1(64)
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			klocal.ExtractNeighborhood(g, 0, k)
		}
	})
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			klocal.Preprocess(g, 0, k)
		}
	})
}

// Micro-benchmarks of the hot paths.

func BenchmarkRouteStepAlgorithm1(b *testing.B) {
	g := klocal.RandomConnected(klocal.NewRand(5), 48, 0.08)
	alg := klocal.Algorithm1()
	k := alg.MinK(48)
	f := alg.Bind(g, k) // preprocessing is cached across steps
	vs := g.Vertices()
	// Warm the cache so the bench measures the per-step decision.
	for _, v := range vs {
		if v != vs[0] {
			if _, err := f(vs[0], vs[0], v, klocal.NoVertex); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := vs[1+i%(len(vs)-1)]
		if _, err := f(vs[0], vs[0], u, klocal.NoVertex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndRoute(b *testing.B) {
	g := klocal.RandomConnected(klocal.NewRand(6), 40, 0.1)
	for _, alg := range []klocal.Algorithm{
		klocal.Algorithm1(), klocal.Algorithm1B(), klocal.Algorithm2(), klocal.Algorithm3(),
	} {
		b.Run(alg.Name, func(b *testing.B) {
			k := alg.MinK(40)
			vs := g.Vertices()
			for i := 0; i < b.N; i++ {
				s := vs[i%len(vs)]
				t := vs[(i+17)%len(vs)]
				if s == t {
					continue
				}
				if res := klocal.Route(alg, g, k, s, t); res.Outcome != klocal.Delivered {
					b.Fatalf("%s failed: %v", alg.Name, res.Outcome)
				}
			}
		})
	}
}

func BenchmarkDiscovery(b *testing.B) {
	g := klocal.RandomConnected(klocal.NewRand(7), 40, 0.08)
	alg := klocal.Algorithm3()
	k := alg.MinK(40)
	for i := 0; i < b.N; i++ {
		nw := klocal.NewNetwork(g, k, alg)
		nw.Start()
		if err := nw.Discover(); err != nil {
			b.Fatal(err)
		}
		nw.Stop()
	}
}
