package exper

import (
	"math/rand"

	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// The -parallel fast path: the sweep's pair evaluations routed through
// the traffic engine's worker pool instead of one walk at a time. The
// parallel functions draw from the shared rng in exactly the same order
// as their sequential counterparts and route deterministic walks, so
// their results are identical point for point — only the wall clock
// changes. The parity test in parallel_test.go enforces this.

// samplePairs draws `pairs` sampled requests using the same rng calls as
// evalSampledPairs; pairs with s == t are dropped (not redrawn), matching
// the sequential sampling exactly.
func samplePairs(rng *rand.Rand, g *graph.Graph, pairs int) []engine.Request {
	vs := g.Vertices()
	out := make([]engine.Request, 0, pairs)
	for i := 0; i < pairs; i++ {
		s := vs[rng.Intn(len(vs))]
		t := vs[rng.Intn(len(vs))]
		if s == t {
			continue
		}
		out = append(out, engine.Request{S: s, T: t})
	}
	return out
}

// evalRequestsEngine routes reqs over (alg, g, k) with `workers`
// concurrent workers and folds the results into stats in request order.
func evalRequestsEngine(alg route.Algorithm, g *graph.Graph, k, workers int, reqs []engine.Request, stats *PairStats) error {
	snap, err := engine.NewSnapshotStore(g, k, alg, engine.SnapshotOptions{})
	if err != nil {
		return err
	}
	resps, _, err := engine.RouteAll(snap, reqs, engine.Config{Workers: workers})
	if err != nil {
		return err
	}
	for _, r := range resps {
		stats.add(g, r.Result)
	}
	return nil
}

// SweepParallel is Sweep routed through the engine: identical points
// (same rng stream, same pairs, same deterministic walks), computed with
// `workers` concurrent routing workers per (algorithm, k, graph) cell.
func SweepParallel(rng *rand.Rand, n, randomGraphs, pairs, workers int) (*SweepResult, error) {
	res := &SweepResult{N: n}
	graphs := workloadGraphs(rng, n, randomGraphs)
	algs := []route.Algorithm{
		route.Algorithm1(),
		route.Algorithm1B(),
		route.Algorithm2(),
		route.Algorithm3(),
	}
	for _, alg := range algs {
		for k := 1; k <= (n+1)/2; k++ {
			var stats PairStats
			for _, g := range graphs {
				reqs := samplePairs(rng, g, pairs)
				if err := evalRequestsEngine(alg, g, k, workers, reqs, &stats); err != nil {
					return nil, err
				}
			}
			stats.finish()
			res.Points = append(res.Points, SweepPoint{Algorithm: alg.Name, K: k, Stats: stats})
		}
	}
	return res, nil
}

// AllPairsParallel routes every ordered pair of g through the engine —
// the parallel counterpart of evalAllPairs, exposed for table-scale
// experiments over larger n than the sequential path can afford.
func AllPairsParallel(alg route.Algorithm, g *graph.Graph, k, workers int) (*PairStats, error) {
	var stats PairStats
	reqs := engine.Take(engine.AllPairs(g), engine.PairCount(g))
	if err := evalRequestsEngine(alg, g, k, workers, reqs, &stats); err != nil {
		return nil, err
	}
	stats.finish()
	return &stats, nil
}
