package exper

import (
	"fmt"
	"io"
	"math/rand"

	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// SweepPoint is one (algorithm, k) measurement of the locality sweep.
type SweepPoint struct {
	Algorithm string
	K         int
	Stats     PairStats
}

// SweepResult measures delivery rate and dilation as the locality
// parameter k varies across its whole range — the empirical picture of
// the feasibility thresholds: each algorithm's delivery rate jumps to
// 100% exactly at its T(n).
type SweepResult struct {
	N      int
	Points []SweepPoint
}

// Sweep runs every algorithm at every k in [1, ⌈n/2⌉] over the standard
// workload, sampling `pairs` origin-destination pairs per graph and
// routing each cell's pairs through the traffic engine on `workers`
// lanes (0 = GOMAXPROCS). The walks are deterministic and the samples
// drawn in a fixed order, so the points do not depend on workers.
func Sweep(rng *rand.Rand, n, randomGraphs, pairs, workers int) (*SweepResult, error) {
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
				if err := evalRequests(alg, g, k, workers, samplePairs(rng, g, pairs), &stats); err != nil {
					return nil, err
				}
			}
			stats.finish()
			res.Points = append(res.Points, SweepPoint{Algorithm: alg.Name, K: k, Stats: stats})
		}
	}
	return res, nil
}

// samplePairs draws `pairs` ordered pairs of g uniformly; a pair with
// s == t is dropped, not redrawn.
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

// evalRequests routes reqs over (alg, g, k) on `workers` engine lanes
// and folds the results into stats in request order.
func evalRequests(alg route.Algorithm, g *graph.Graph, k, workers int, reqs []engine.Request, stats *PairStats) error {
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

// Render prints the sweep with the thresholds marked.
func (r *SweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Locality sweep — delivery rate and dilation vs k, n = %d\n", r.N)
	fmt.Fprintf(w, "(thresholds: Algorithm1/1B k>=%d, Algorithm2 k>=%d, Algorithm3 k>=%d)\n",
		route.MinK1(r.N), route.MinK2(r.N), route.MinK3(r.N))
	fmt.Fprintf(w, "%-14s %-4s %-12s %-12s %s\n", "algorithm", "k", "delivered", "worst dil", "mean dil")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-14s %-4d %5d/%-6d %-12.3f %.3f\n",
			p.Algorithm, p.K, p.Stats.Delivered, p.Stats.Pairs, p.Stats.WorstDilation, p.Stats.MeanDilation)
	}
}
