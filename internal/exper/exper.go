// Package exper regenerates every table and quantitative figure of the
// paper as machine-checked experiments. Each Table*/Fig* function returns
// a structured result with a Render method producing the same rows the
// paper reports; cmd/tables prints them all.
package exper

import (
	"math/rand"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
	"klocal/internal/verify"
)

// runPair routes one (s,t) pair with a bound function.
func runPair(g *graph.Graph, f route.Func, alg route.Algorithm, s, t graph.Vertex) *sim.Result {
	return sim.Run(g, sim.Func(f), s, t, sim.Options{
		DetectLoops:      !alg.Randomized,
		PredecessorAware: alg.PredecessorAware,
	})
}

// DilationWitness pins the concrete walk behind a measured dilation
// figure: enough context to re-validate the bound end to end with
// verify.CheckDilation instead of trusting a float that was computed
// once and carried along.
type DilationWitness struct {
	G    *graph.Graph
	S, T graph.Vertex
	Walk []graph.Vertex
}

// Check re-validates the witnessed walk against a dilation bound.
func (w *DilationWitness) Check(bound float64) error {
	return verify.CheckDilation(w.Walk, w.G, w.S, w.T, bound)
}

// PairStats aggregates delivery and dilation over a set of routed pairs.
type PairStats struct {
	Pairs     int
	Delivered int
	// WorstDilation and MeanDilation are over delivered pairs with
	// s != t.
	WorstDilation float64
	MeanDilation  float64
	// Worst is the walk achieving WorstDilation (nil until a delivered
	// pair with s != t is seen).
	Worst *DilationWitness

	dilationSum float64
	dilationN   int
}

func (ps *PairStats) add(g *graph.Graph, res *sim.Result) {
	ps.Pairs++
	if res.Outcome != sim.Delivered {
		return
	}
	ps.Delivered++
	if res.Dist > 0 {
		d := res.Dilation()
		ps.dilationSum += d
		ps.dilationN++
		if d > ps.WorstDilation {
			ps.WorstDilation = d
			ps.Worst = &DilationWitness{
				G: g, S: res.Route[0], T: res.Route[len(res.Route)-1],
				Walk: res.Route,
			}
		}
	}
}

func (ps *PairStats) finish() {
	if ps.dilationN > 0 {
		ps.MeanDilation = ps.dilationSum / float64(ps.dilationN)
	}
}

// AllDelivered reports whether every routed pair was delivered.
func (ps *PairStats) AllDelivered() bool { return ps.Delivered == ps.Pairs }

// evalAllPairs routes every ordered pair of g with alg at locality k.
func evalAllPairs(alg route.Algorithm, g *graph.Graph, k int, stats *PairStats) {
	f := alg.Bind(g, k)
	for _, s := range g.Vertices() {
		for _, t := range g.Vertices() {
			if s == t {
				continue
			}
			stats.add(g, runPair(g, f, alg, s, t))
		}
	}
}

// workloadGraphs is the standard positive-side workload at size n: one
// graph per structural family plus randomized instances with adversarial
// relabelling.
func workloadGraphs(rng *rand.Rand, n, randomCount int) []*graph.Graph {
	graphs := []*graph.Graph{
		gen.Path(n),
		gen.Cycle(n),
		gen.Spider(4, (n-1)/4),
		gen.RandomTree(rng, n),
	}
	if n >= 10 {
		graphs = append(graphs, gen.Lollipop(n-n/3, n/3))
		graphs = append(graphs, gen.Wheel(n))
		c := (n - 2) / 2
		graphs = append(graphs, gen.Barbell(c, n-2*c))
	}
	for i := 0; i < randomCount; i++ {
		g := gen.RandomConnected(rng, n, rng.Float64()*0.2)
		graphs = append(graphs, g.PermuteLabels(gen.RandomLabelPermutation(rng, g)))
	}
	return graphs
}
