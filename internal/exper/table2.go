package exper

import (
	"fmt"
	"io"
	"math/rand"

	"klocal/internal/adversary"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// Table2Row is one column of the paper's Table 2 at a concrete size: the
// locality regime k ≈ n/4, n/3 or n/2 with the dilation lower bound
// S(k) = (2n−3k−1)/(k+1), the dilation the matching algorithm actually
// achieves on the Theorem 4 adversary instance, and the worst dilation it
// shows across the standard workload.
type Table2Row struct {
	Regime    string // "n/4", "n/3", "n/2"
	Algorithm string
	N, K      int

	// LowerBoundFormula is (2n−3k−1)/(k+1); LimitFormula is 2n/k − 3.
	LowerBoundFormula float64
	LimitFormula      float64
	// AdversaryDilation is the algorithm's dilation on the DilationPath
	// instance (the measured lower-bound witness).
	AdversaryDilation float64
	// WorkloadWorst is the worst dilation over the standard workload.
	WorkloadWorst float64
	// PaperUpperBound is the paper's upper bound for this regime: 7 / 6 /
	// 3 / 1 (Theorems 5–8).
	PaperUpperBound float64
	// AdversaryWitness and WorkloadWitness are the walks behind the two
	// measured columns; Check re-validates them against PaperUpperBound
	// end to end rather than re-comparing the cached floats.
	AdversaryWitness *DilationWitness
	WorkloadWitness  *DilationWitness
}

// Table2Result reproduces Table 2 at size n.
type Table2Result struct {
	N    int
	Rows []Table2Row
}

// Table2 measures the dilation landscape at size n.
func Table2(rng *rand.Rand, n, randomGraphs int) (*Table2Result, error) {
	if n < 16 {
		return nil, fmt.Errorf("exper: Table2 needs n >= 16, got %d", n)
	}
	res := &Table2Result{N: n}
	graphs := workloadGraphs(rng, n, randomGraphs)

	add := func(regime string, alg route.Algorithm, k int, upper float64) error {
		row := Table2Row{
			Regime:          regime,
			Algorithm:       alg.Name,
			N:               n,
			K:               k,
			PaperUpperBound: upper,
			LimitFormula:    2*float64(n)/float64(k) - 3,
		}
		if k < n/2 {
			row.LowerBoundFormula = adversary.LowerBoundDilation(n, k)
			inst, err := adversary.DilationPath(n, k)
			if err != nil {
				return err
			}
			r := sim.Bind(alg, inst.G, k).Run(inst.S, inst.T)
			if r.Outcome == sim.Delivered {
				row.AdversaryDilation = r.Dilation()
				row.AdversaryWitness = &DilationWitness{G: inst.G, S: inst.S, T: inst.T, Walk: r.Route}
			} else {
				row.AdversaryDilation = -1
			}
		} else {
			// k = ⌊n/2⌋: the bound degenerates to 1 (shortest paths).
			row.LowerBoundFormula = 1
			row.AdversaryDilation = 1
		}
		var stats PairStats
		for _, g := range graphs {
			evalAllPairs(alg, g, k, &stats)
		}
		stats.finish()
		row.WorkloadWorst = stats.WorstDilation
		row.WorkloadWitness = stats.Worst
		res.Rows = append(res.Rows, row)
		return nil
	}

	if err := add("n/4", route.Algorithm1(), route.MinK1(n), 7); err != nil {
		return nil, err
	}
	if err := add("n/4", route.Algorithm1B(), route.MinK1(n), 6); err != nil {
		return nil, err
	}
	if err := add("n/3", route.Algorithm2(), route.MinK2(n), 3); err != nil {
		return nil, err
	}
	if err := add("n/2", route.Algorithm3(), route.MinK3(n), 1); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the table.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2 — dilation bounds, n = %d\n", r.N)
	fmt.Fprintf(w, "%-6s %-12s %-4s %-14s %-12s %-14s %-14s %s\n",
		"k", "algorithm", "", "S(k) exact", "S(k) limit", "adversary dil", "workload worst", "paper upper")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6s %-12s k=%-3d %-14.3f %-12.3f %-14.3f %-14.3f %.0f\n",
			row.Regime, row.Algorithm, row.K,
			row.LowerBoundFormula, row.LimitFormula,
			row.AdversaryDilation, row.WorkloadWorst, row.PaperUpperBound)
	}
}
