package route_test

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	. "klocal/internal/route"
	"klocal/internal/sim"
)

// deliverEverywhere checks that alg with locality k = alg.MinK(n)
// delivers between every ordered pair of g, and returns the worst
// dilation observed.
func deliverEverywhere(t *testing.T, alg Algorithm, g *graph.Graph) float64 {
	t.Helper()
	n := g.N()
	k := alg.MinK(n)
	f := sim.Bind(alg, g, k)
	worst := 0.0
	for _, s := range g.Vertices() {
		for _, dst := range g.Vertices() {
			if s == dst {
				continue
			}
			res := f.Run(s, dst)
			if res.Outcome != sim.Delivered {
				t.Fatalf("%s failed (%v, err=%v) on s=%d t=%d k=%d n=%d g=%v route=%v",
					alg.Name, res.Outcome, res.Err, s, dst, k, n, g, res.Route)
			}
			if d := res.Dilation(); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func exhaustiveMaxN(t *testing.T) int {
	if testing.Short() {
		return 5
	}
	return 6
}

func TestAlgorithm1DeliversExhaustively(t *testing.T) {
	for n := 2; n <= exhaustiveMaxN(t); n++ {
		worst := 0.0
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			if w := deliverEverywhere(t, Algorithm1(), g); w > worst {
				worst = w
			}
			return true
		})
		if worst >= 7 {
			t.Errorf("n=%d: Algorithm 1 dilation %v >= 7", n, worst)
		}
	}
}

func TestAlgorithm1BDeliversExhaustively(t *testing.T) {
	for n := 2; n <= exhaustiveMaxN(t); n++ {
		worst := 0.0
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			if w := deliverEverywhere(t, Algorithm1B(), g); w > worst {
				worst = w
			}
			return true
		})
		if worst >= 6 {
			t.Errorf("n=%d: Algorithm 1B dilation %v >= 6", n, worst)
		}
	}
}

func TestAlgorithm2DeliversExhaustively(t *testing.T) {
	for n := 2; n <= exhaustiveMaxN(t); n++ {
		worst := 0.0
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			if w := deliverEverywhere(t, Algorithm2(), g); w > worst {
				worst = w
			}
			return true
		})
		if worst >= 3 {
			t.Errorf("n=%d: Algorithm 2 dilation %v >= 3", n, worst)
		}
	}
}

func TestAlgorithm3DeliversShortestExhaustively(t *testing.T) {
	for n := 2; n <= exhaustiveMaxN(t); n++ {
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			k := MinK3(n)
			f := sim.Bind(Algorithm3(), g, k)
			for _, s := range g.Vertices() {
				for _, dst := range g.Vertices() {
					if s == dst {
						continue
					}
					res := f.Run(s, dst)
					if res.Outcome != sim.Delivered {
						t.Fatalf("Algorithm 3 failed (%v, err=%v) on s=%d t=%d n=%d g=%v",
							res.Outcome, res.Err, s, dst, n, g)
					}
					if res.Len() != res.Dist {
						t.Fatalf("Algorithm 3 route %d != dist %d on s=%d t=%d g=%v route=%v",
							res.Len(), res.Dist, s, dst, g, res.Route)
					}
				}
			}
			return true
		})
	}
}

// randomFamily yields random connected graphs with adversarially permuted
// labels.
func randomFamily(rng *rand.Rand, trials, maxN int, fn func(*graph.Graph)) {
	for i := 0; i < trials; i++ {
		n := 8 + rng.Intn(maxN-7)
		g := gen.RandomConnected(rng, n, rng.Float64()*0.25)
		g = g.PermuteLabels(gen.RandomLabelPermutation(rng, g))
		fn(g)
	}
}

func TestAlgorithm1DeliversRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	worst := 0.0
	randomFamily(rng, 60, 26, func(g *graph.Graph) {
		if w := deliverEverywhere(t, Algorithm1(), g); w > worst {
			worst = w
		}
	})
	if worst >= 7 {
		t.Errorf("Algorithm 1 dilation %v >= 7", worst)
	}
}

func TestAlgorithm1BDeliversRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	worst := 0.0
	randomFamily(rng, 60, 26, func(g *graph.Graph) {
		if w := deliverEverywhere(t, Algorithm1B(), g); w > worst {
			worst = w
		}
	})
	if worst >= 6 {
		t.Errorf("Algorithm 1B dilation %v >= 6", worst)
	}
}

func TestAlgorithm2DeliversRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	worst := 0.0
	randomFamily(rng, 60, 26, func(g *graph.Graph) {
		if w := deliverEverywhere(t, Algorithm2(), g); w > worst {
			worst = w
		}
	})
	if worst >= 3 {
		t.Errorf("Algorithm 2 dilation %v >= 3", worst)
	}
}

func TestAlgorithm3ShortestRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	randomFamily(rng, 40, 30, func(g *graph.Graph) {
		n := g.N()
		k := MinK3(n)
		f := sim.Bind(Algorithm3(), g, k)
		vs := g.Vertices()
		for trial := 0; trial < 10; trial++ {
			s := vs[rng.Intn(len(vs))]
			dst := vs[rng.Intn(len(vs))]
			if s == dst {
				continue
			}
			res := f.Run(s, dst)
			if res.Outcome != sim.Delivered || res.Len() != res.Dist {
				t.Fatalf("Algorithm 3: outcome=%v len=%d dist=%d s=%d t=%d g=%v",
					res.Outcome, res.Len(), res.Dist, s, dst, g)
			}
		}
	})
}

func TestAlgorithmsOnStructuredFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	graphs := []*graph.Graph{
		gen.Path(17),
		gen.Cycle(18),
		gen.Star(12),
		gen.Spider(4, 4),
		gen.Grid(3, 5),
		gen.Theta(4, 5, 6),
		gen.Lollipop(11, 5),
		gen.Caterpillar(6, 2),
		gen.Complete(9),
		gen.RandomTree(rng, 19),
	}
	algs := []struct {
		alg      Algorithm
		maxDilat float64
	}{
		{Algorithm1(), 7},
		{Algorithm1B(), 6},
		{Algorithm2(), 3},
		{Algorithm3(), 1.0000001},
	}
	for _, g := range graphs {
		for _, a := range algs {
			if w := deliverEverywhere(t, a.alg, g); w >= a.maxDilat {
				t.Errorf("%s on %v: dilation %v >= %v", a.alg.Name, g, w, a.maxDilat)
			}
		}
	}
}

func TestLemma14Algorithm1BNeverLonger(t *testing.T) {
	// Lemma 14: 1B's edge sequence is a subsequence of Algorithm 1's, so
	// its routes are never longer.
	rng := rand.New(rand.NewSource(106))
	randomFamily(rng, 40, 22, func(g *graph.Graph) {
		n := g.N()
		k := MinK1(n)
		f1 := sim.Bind(Algorithm1(), g, k)
		f1b := sim.Bind(Algorithm1B(), g, k)
		vs := g.Vertices()
		for trial := 0; trial < 8; trial++ {
			s := vs[rng.Intn(len(vs))]
			dst := vs[rng.Intn(len(vs))]
			if s == dst {
				continue
			}
			r1 := f1.Run(s, dst)
			r1b := f1b.Run(s, dst)
			if r1.Outcome != sim.Delivered || r1b.Outcome != sim.Delivered {
				t.Fatalf("delivery failed: alg1=%v alg1b=%v s=%d t=%d g=%v", r1.Outcome, r1b.Outcome, s, dst, g)
			}
			if r1b.Len() > r1.Len() {
				t.Fatalf("Algorithm 1B route (%d) longer than Algorithm 1 (%d): s=%d t=%d g=%v",
					r1b.Len(), r1.Len(), s, dst, g)
			}
		}
	})
}

func TestFig13Algorithm1ExactRoute(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{16, 4}, {24, 6}, {40, 10}, {41, 10}, {60, 15}} {
		f, err := gen.NewFig13(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Bind(Algorithm1(), f.G, tc.k).Run(f.S, f.T)
		if res.Outcome != sim.Delivered {
			t.Fatalf("n=%d k=%d: %v err=%v route=%v", tc.n, tc.k, res.Outcome, res.Err, res.Route)
		}
		if res.Len() != f.ExpectedRouteLen() {
			t.Errorf("n=%d k=%d: route %d, paper says 2n-k-3 = %d (route=%v)",
				tc.n, tc.k, res.Len(), f.ExpectedRouteLen(), res.Route)
		}
		if res.Dist != f.ShortestLen() {
			t.Errorf("n=%d k=%d: dist %d, want k+3 = %d", tc.n, tc.k, res.Dist, f.ShortestLen())
		}
	}
}

func TestFig13DilationApproaches7(t *testing.T) {
	// 2n−k−3 over k+3 at k = n/4 is 7 − 96/(n+12).
	f, err := gen.NewFig13(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Bind(Algorithm1(), f.G, 24).Run(f.S, f.T)
	want := 7.0 - 96.0/float64(96+12)
	if got := res.Dilation(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("dilation = %v, want %v", got, want)
	}
}

func TestFig17Algorithm1BExactRoute(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{28, 7}, {32, 8}, {40, 10}, {80, 20}} {
		f, err := gen.NewFig17(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Bind(Algorithm1B(), f.G, tc.k).Run(f.S, f.T)
		if res.Outcome != sim.Delivered {
			t.Fatalf("n=%d k=%d: 1B %v err=%v route=%v", tc.n, tc.k, res.Outcome, res.Err, res.Route)
		}
		if res.Len() != f.ExpectedRouteLen() {
			t.Errorf("n=%d k=%d: 1B route %d, paper says n+2k-6 = %d (route=%v)",
				tc.n, tc.k, res.Len(), f.ExpectedRouteLen(), res.Route)
		}
		r1 := sim.Bind(Algorithm1(), f.G, tc.k).Run(f.S, f.T)
		if r1.Outcome != sim.Delivered {
			t.Fatalf("n=%d k=%d: Alg1 %v err=%v", tc.n, tc.k, r1.Outcome, r1.Err)
		}
		if r1.Len() != f.Algorithm1RouteLen() {
			t.Errorf("n=%d k=%d: Alg1 route %d, want n+2k = %d",
				tc.n, tc.k, r1.Len(), f.Algorithm1RouteLen())
		}
	}
}

func TestFig17DilationMatchesFormula(t *testing.T) {
	// The exact route is n+2k−6−2·δ*; with δ* = 0 the paper's
	// (n+2k−6)/(k+1) = 6 − 12/(k+1) is reproduced verbatim.
	f, err := gen.NewFig17(32, 8) // δ* = 0
	if err != nil {
		t.Fatal(err)
	}
	if f.DeltaStar != 0 {
		t.Fatalf("expected δ* = 0, got %d", f.DeltaStar)
	}
	if f.ExpectedRouteLen() != f.PaperRouteLen() {
		t.Fatalf("δ*=0 must reproduce the paper's route length")
	}
	res := sim.Bind(Algorithm1B(), f.G, 8).Run(f.S, f.T)
	want := 6.0 - 12.0/9.0
	if got := res.Dilation(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("dilation = %v, want %v", got, want)
	}
}

func TestRightHandRuleOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		g := gen.RandomTree(rng, 5+rng.Intn(15))
		if w := deliverEverywhere(t, TreeRightHand(), g); w <= 0 {
			t.Errorf("right-hand rule should deliver on trees (got dilation %v)", w)
		}
	}
}

func TestRightHandRuleDefeatedByFig7(t *testing.T) {
	f, err := gen.NewFig7(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	res := sim.Bind(TreeRightHand(), f.G, k).Run(f.S, f.T)
	if res.Outcome != sim.Looped {
		t.Errorf("Fig 7 should defeat the right-hand rule at k=4: got %v (route=%v)", res.Outcome, res.Route)
	}
	// The route stayed on the cycle: no visited node ever saw t.
	for _, v := range res.Route {
		if f.G.Dist(v, f.T) <= k {
			t.Errorf("visited node %d is within k of t", v)
		}
	}
}

func TestShortestPathOracle(t *testing.T) {
	g := gen.Grid(4, 4)
	f := sim.Bind(ShortestPathOracle(), g, 1)
	res := f.Run(0, 15)
	if res.Outcome != sim.Delivered || res.Len() != res.Dist {
		t.Errorf("oracle: outcome=%v len=%d dist=%d", res.Outcome, res.Len(), res.Dist)
	}
}

func TestRandomWalkEventuallyDelivers(t *testing.T) {
	g := gen.Cycle(10)
	alg := RandomWalk(7)
	f := sim.Bind(alg, g, 2)
	res := f.RunScratch(0, 5, 100000, sim.NewScratch())
	if res.Outcome != sim.Delivered {
		t.Errorf("random walk on C10 should deliver within the budget: %v", res.Outcome)
	}
}

// RandomWalkRand draws from the caller's generator: with identically
// seeded generators it replays RandomWalk(seed)'s walk exactly, and
// each Bind continues the shared stream instead of restarting it.
func TestRandomWalkRandMatchesSeeded(t *testing.T) {
	g := gen.Cycle(10)
	run := func(f *sim.Walker) []graph.Vertex {
		return f.RunScratch(0, 5, 100000, sim.NewScratch()).Route
	}
	seeded := run(sim.Bind(RandomWalk(7), g, 2))
	explicit := run(sim.Bind(RandomWalkRand(rand.New(rand.NewSource(7))), g, 2))
	if !slicesEqual(seeded, explicit) {
		t.Errorf("RandomWalkRand with a fresh seed-7 generator diverged from RandomWalk(7):\n%v\n%v", seeded, explicit)
	}

	// A rebind of the seeded variant restarts the stream; a rebind of
	// the explicit variant continues the caller's generator.
	alg := RandomWalkRand(rand.New(rand.NewSource(7)))
	first := run(sim.Bind(alg, g, 2))
	second := run(sim.Bind(alg, g, 2))
	if !slicesEqual(first, seeded) {
		t.Errorf("first explicit walk should equal the seeded walk")
	}
	if slicesEqual(second, first) {
		t.Errorf("second Bind should continue the generator, not replay the first walk")
	}
}

func slicesEqual(a, b []graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMinKValues(t *testing.T) {
	tests := []struct {
		n                   int
		want1, want2, want3 int
	}{
		{8, 2, 3, 4},
		{12, 3, 4, 6},
		{13, 4, 5, 6},
		{100, 25, 34, 50},
	}
	for _, tt := range tests {
		if got := MinK1(tt.n); got != tt.want1 {
			t.Errorf("MinK1(%d) = %d, want %d", tt.n, got, tt.want1)
		}
		if got := MinK2(tt.n); got != tt.want2 {
			t.Errorf("MinK2(%d) = %d, want %d", tt.n, got, tt.want2)
		}
		if got := MinK3(tt.n); got != tt.want3 {
			t.Errorf("MinK3(%d) = %d, want %d", tt.n, got, tt.want3)
		}
	}
}

func TestOriginObliviousIgnoresS(t *testing.T) {
	// Algorithm 2 and 3 must return identical decisions whatever s is.
	g := gen.Cycle(12)
	for _, alg := range []Algorithm{Algorithm2(), Algorithm3()} {
		if alg.OriginAware {
			t.Errorf("%s must be origin-oblivious", alg.Name)
		}
		f, sc := sim.Bind(alg, g, alg.MinK(12)), prep.NewScratch()
		for _, u := range g.Vertices() {
			for _, v := range append(g.Adj(u), graph.NoVertex) {
				h1, e1 := f.Decide(0, 6, u, v, sc)
				h2, e2 := f.Decide(3, 6, u, v, sc)
				if h1 != h2 || (e1 == nil) != (e2 == nil) {
					t.Errorf("%s reads s: u=%d v=%d: %v/%v", alg.Name, u, v, h1, h2)
				}
			}
		}
	}
}

func TestPredecessorObliviousIgnoresV(t *testing.T) {
	g := gen.Cycle(12)
	alg := Algorithm3()
	if alg.PredecessorAware {
		t.Error("Algorithm 3 must be predecessor-oblivious")
	}
	f, sc := sim.Bind(alg, g, alg.MinK(12)), prep.NewScratch()
	for _, u := range g.Vertices() {
		if u == 6 {
			continue // routing functions are never invoked at u == t
		}
		base, err := f.Decide(0, 6, u, graph.NoVertex, sc)
		if err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		for _, v := range g.Adj(u) {
			got, err := f.Decide(0, 6, u, v, sc)
			if err != nil || got != base {
				t.Errorf("Algorithm 3 reads v at u=%d: %v vs %v (err=%v)", u, got, base, err)
			}
		}
	}
}

func TestAlgorithm1ErrorsBelowThreshold(t *testing.T) {
	// On the Theorem 1 family with k = r < T(n), Algorithm 1 must fail
	// (loop or error) on at least one variant — it cannot beat the lower
	// bound.
	fam, err := gen.NewTheorem1Family(19)
	if err != nil {
		t.Fatal(err)
	}
	k := fam.R // below threshold ⌊(n+1)/4⌋ = r+1
	failed := false
	for _, inst := range fam.Variants {
		res := sim.Bind(Algorithm1(), inst.G, k).Run(inst.S, inst.T)
		if res.Outcome != sim.Delivered {
			failed = true
		}
	}
	if !failed {
		t.Error("Algorithm 1 with k < T(n) delivered on every Theorem 1 variant, contradicting the lower bound")
	}
}
