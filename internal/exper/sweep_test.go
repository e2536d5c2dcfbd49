package exper

import (
	"math/rand"
	"slices"
	"testing"

	"klocal/internal/route"
)

// sweepSequential is the locality sweep one walk at a time, each cell's
// pairs drawn and routed in turn: the reference Sweep must match point
// for point.
func sweepSequential(rng *rand.Rand, n, randomGraphs, pairs int) *SweepResult {
	res := &SweepResult{N: n}
	graphs := workloadGraphs(rng, n, randomGraphs)
	for _, alg := range []route.Algorithm{route.Algorithm1(), route.Algorithm1B(), route.Algorithm2(), route.Algorithm3()} {
		for k := 1; k <= (n+1)/2; k++ {
			var stats PairStats
			for _, g := range graphs {
				f := alg.Bind(g, k)
				vs := g.Vertices()
				for i := 0; i < pairs; i++ {
					s := vs[rng.Intn(len(vs))]
					t := vs[rng.Intn(len(vs))]
					if s == t {
						continue
					}
					stats.add(g, runPair(g, f, alg, s, t))
				}
			}
			stats.finish()
			res.Points = append(res.Points, SweepPoint{Algorithm: alg.Name, K: k, Stats: stats})
		}
	}
	return res
}

// TestSweepMatchesSequential pins the engine-routed sweep to the
// sequential reference, at one lane and at four: the same points,
// down to the walk behind each worst dilation.
func TestSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep parity is slow")
	}
	n, graphs, pairs := 9, 1, 6
	seq := sweepSequential(rand.New(rand.NewSource(17)), n, graphs, pairs)
	for _, workers := range []int{1, 4} {
		got, err := Sweep(rand.New(rand.NewSource(17)), n, graphs, pairs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(seq.Points) {
			t.Fatalf("workers=%d: point count %d vs %d", workers, len(got.Points), len(seq.Points))
		}
		for i, sp := range seq.Points {
			gp := got.Points[i]
			if gp.Algorithm != sp.Algorithm || gp.K != sp.K {
				t.Fatalf("workers=%d: point %d keys differ: %s/%d vs %s/%d", workers, i, gp.Algorithm, gp.K, sp.Algorithm, sp.K)
			}
			g, w := gp.Stats, sp.Stats
			if g.Pairs != w.Pairs || g.Delivered != w.Delivered ||
				g.WorstDilation != w.WorstDilation || g.MeanDilation != w.MeanDilation {
				t.Fatalf("workers=%d: point %d (%s k=%d): %+v vs %+v", workers, i, sp.Algorithm, sp.K, g, w)
			}
			if (g.Worst == nil) != (w.Worst == nil) ||
				g.Worst != nil && (g.Worst.S != w.Worst.S || g.Worst.T != w.Worst.T || !slices.Equal(g.Worst.Walk, w.Worst.Walk)) {
				t.Fatalf("workers=%d: point %d (%s k=%d): witness %+v vs %+v", workers, i, sp.Algorithm, sp.K, g.Worst, w.Worst)
			}
		}
	}
}
