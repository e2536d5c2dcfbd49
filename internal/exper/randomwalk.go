package exper

import (
	"fmt"
	"io"
	"math/rand"

	"klocal/internal/gen"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// RandomWalkPoint is one size in the randomized-baseline series.
type RandomWalkPoint struct {
	N         int
	K         int
	MeanHops  float64
	RatioToN2 float64
	// Deterministic is the matching deterministic bound 2n−3k−1 on the
	// same instance, for contrast.
	Deterministic int
}

// RandomWalkResult reproduces the randomized-routing context of
// Section 3 (Chen et al.): a memoryless random walk delivers in
// expectation but its expected route length grows quadratically, whereas
// the deterministic k-local algorithms are linear on the same adversary
// instances.
type RandomWalkResult struct {
	Trials int
	Points []RandomWalkPoint
}

// RandomWalkQuadratic measures the mean random-walk route length from
// end to end of a path of n vertices (hitting time ~ n²), next to the
// deterministic Theorem 4 bound at k = ⌈n/4⌉.
func RandomWalkQuadratic(rng *rand.Rand, sizes []int, trials int) *RandomWalkResult {
	res := &RandomWalkResult{Trials: trials}
	for _, n := range sizes {
		g := gen.Path(n)
		k := route.MinK1(n)
		total := 0
		for i := 0; i < trials; i++ {
			alg := route.RandomWalk(rng.Int63())
			r := sim.Bind(alg, g, 1).RunScratch(0, gen.Path(n).Vertices()[n-1], 64*n*n, sim.NewScratch())
			total += r.Len()
		}
		mean := float64(total) / float64(trials)
		res.Points = append(res.Points, RandomWalkPoint{
			N:             n,
			K:             k,
			MeanHops:      mean,
			RatioToN2:     mean / float64(n*n),
			Deterministic: 2*n - 3*k - 1,
		})
	}
	return res
}

// Render prints the series.
func (r *RandomWalkResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Random walk baseline (Section 3, Chen et al.): mean end-to-end hops on P_n over %d trials\n", r.Trials)
	fmt.Fprintf(w, "%-6s %-12s %-12s %s\n", "n", "mean hops", "hops/n²", "deterministic 2n-3k-1 at k=n/4")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %-12.1f %-12.3f %d\n", p.N, p.MeanHops, p.RatioToN2, p.Deterministic)
	}
}
