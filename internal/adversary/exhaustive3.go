package adversary

import (
	"fmt"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/sim"
)

// ExhaustiveTheorem3Result summarizes the full port-assignment check for
// the predecessor-oblivious lower bound.
type ExhaustiveTheorem3Result struct {
	N           int
	Assignments int // 2^(interior vertices of the common k-ball)
	Defeated    int
	Instances   int // the two path variants
}

// AllDefeated reports whether no assignment survived.
func (r *ExhaustiveTheorem3Result) AllDefeated() bool { return r.Defeated == r.Assignments }

// ExhaustiveTheorem3 checks EVERY predecessor-oblivious behaviour against
// the Theorem 3 two-path family: a predecessor-oblivious deterministic
// routing function commits one fixed out-port per node, and on the
// family's paths each node has at most two ports. The k-neighbourhoods
// G_k(s) coincide across the two variants for every k ≤ r, so the port
// committed at each of the 2k+1 commonly-visible nodes must be the same
// in both; nodes outside the common ball may choose per variant — the
// check lets them pick *adversarially in the algorithm's favour* (both
// options are tried, counting the assignment as surviving if any
// completion delivers). Even with that concession every assignment fails
// on one of the two variants, which is the computational form of
// Theorem 3. n is capped to keep 2^(2k±1) enumerable.
func ExhaustiveTheorem3(n int) (*ExhaustiveTheorem3Result, error) {
	if n > 13 {
		return nil, fmt.Errorf("adversary: ExhaustiveTheorem3 enumerates 2^(2r+1) behaviours; n <= 13, got %d", n)
	}
	fam, err := gen.NewTheorem3Family(n)
	if err != nil {
		return nil, err
	}
	k := fam.R
	// The common ball: vertices within distance k of s in variant 0
	// (identical labels in variant 1 by construction).
	common := fam.Variants[0].G.BFSBounded(fam.Variants[0].S, k)
	var commonVertices []graph.Vertex
	for v := range common {
		commonVertices = append(commonVertices, v)
	}
	// Deterministic order for bit-indexing.
	for i := 1; i < len(commonVertices); i++ {
		for j := i; j > 0 && commonVertices[j] < commonVertices[j-1]; j-- {
			commonVertices[j], commonVertices[j-1] = commonVertices[j-1], commonVertices[j]
		}
	}
	res := &ExhaustiveTheorem3Result{N: n, Instances: len(fam.Variants)}
	total := 1 << len(commonVertices)
	for mask := 0; mask < total; mask++ {
		res.Assignments++
		port := make(map[graph.Vertex]int, len(commonVertices))
		for i, v := range commonVertices {
			port[v] = (mask >> i) & 1
		}
		surviving := true
		for _, inst := range fam.Variants {
			if !deliversWithSomeCompletion(inst, port) {
				surviving = false
				break
			}
		}
		if !surviving {
			res.Defeated++
		}
	}
	return res, nil
}

// deliversWithSomeCompletion simulates the committed ports; nodes outside
// the commitment choose in the algorithm's favour: toward t (the best
// possible completion on a path). Delivery under this generous
// completion over-approximates any real algorithm's success.
func deliversWithSomeCompletion(inst gen.Instance, port map[graph.Vertex]int) bool {
	g := inst.G
	distT := g.BFS(inst.T)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		//klocal:allow completion search replays committed ports from the exhaustive enumeration (Lemma 1), not a k-local algorithm
		adj := g.Adj(u)
		if p, ok := port[u]; ok {
			return adj[p%len(adj)], nil
		}
		// Uncommitted node: move toward t (most favourable completion).
		best := adj[0]
		for _, w := range adj {
			if distT[w] < distT[best] {
				best = w
			}
		}
		return best, nil
	}
	res := replay(inst, f, false)
	return res.Outcome == sim.Delivered
}
