package route_test

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	. "klocal/internal/route"
)

func TestPolicyVariantsDeliverExhaustively(t *testing.T) {
	// The Section 6.1 ablation: the dormancy policy only needs to be
	// globally canonical, so the max-rank variant must also deliver
	// everywhere at threshold locality.
	algs := []Algorithm{
		Algorithm1Policy(prep.PolicyMaxRank),
		Algorithm1BPolicy(prep.PolicyMaxRank),
		Algorithm2Policy(prep.PolicyMaxRank),
	}
	maxN := 5
	if testing.Short() {
		maxN = 4
	}
	for n := 2; n <= maxN; n++ {
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			for _, alg := range algs {
				deliverEverywhere(t, alg, g)
			}
			return true
		})
	}
}

func TestPolicyVariantsDeliverRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	algs := []Algorithm{
		Algorithm1Policy(prep.PolicyMaxRank),
		Algorithm1BPolicy(prep.PolicyMaxRank),
		Algorithm2Policy(prep.PolicyMaxRank),
	}
	randomFamily(rng, 25, 20, func(g *graph.Graph) {
		for _, alg := range algs {
			deliverEverywhere(t, alg, g)
		}
	})
}

func TestPolicyNames(t *testing.T) {
	if got := Algorithm1Policy(prep.PolicyMinRank).Name; got != "Algorithm1" {
		t.Errorf("min-rank keeps the base name, got %q", got)
	}
	if got := Algorithm1Policy(prep.PolicyMaxRank).Name; got != "Algorithm1[max-rank]" {
		t.Errorf("name = %q", got)
	}
	if got := Algorithm1BPolicy(prep.PolicyMaxRank).Name; got != "Algorithm1B[max-rank]" {
		t.Errorf("name = %q", got)
	}
	if got := Algorithm2Policy(prep.PolicyMaxRank).Name; got != "Algorithm2[max-rank]" {
		t.Errorf("name = %q", got)
	}
}

func TestPoliciesDifferOnFig13(t *testing.T) {
	// On the Figure 13 instance the policies pick different dormant
	// edges... the cycle there is longer than 2k, so preprocessing is a
	// no-op and both policies coincide; use a small-cycle instance
	// instead: Fig 17, where the small cycle's extreme edges differ.
	f, err := gen.NewFig17(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	vMin := prep.PreprocessStore(f.G, f.S, f.K, prep.PolicyMinRank)
	vMax := prep.PreprocessStore(f.G, f.S, f.K, prep.PolicyMaxRank)
	dMin, dMax := vMin.RoutingHalf().Dormant, vMax.RoutingHalf().Dormant
	if len(dMin) == 0 || len(dMax) == 0 {
		t.Fatal("both policies should classify a dormant edge on the small cycle")
	}
	if dMin[0] == dMax[0] {
		t.Errorf("policies chose the same dormant edge %v; expected extremes to differ", dMin[0])
	}
}
