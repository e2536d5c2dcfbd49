// Package adversary replays the paper's lower-bound proofs executably.
//
// The negative results (Theorems 1–4) quantify over *all* k-local routing
// algorithms. Their proofs reduce that quantification to finite strategy
// sets: Lemma 1 and Corollary 1 force every successful algorithm's local
// routing function at the hub of the counterexample families to be a
// circular permutation of the hub's neighbours (plus, for Theorem 2, an
// initial direction; for Theorem 3, an initial direction at s). This
// package enumerates exactly those strategy sets and simulates each
// strategy against each family member, regenerating Tables 3 and 4 and
// the dilation adversary of Theorem 4 (Figure 6).
package adversary

import (
	"fmt"
	"sort"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// CircularPermutations enumerates the circular permutations of elems as
// cyclic orders anchored at elems' lowest element: each result
// [e0, e1, ..., e_{d-1}] means e_i forwards to e_{i+1 mod d}. There are
// (d−1)! of them; for a degree-4 hub that is Lemma 1's six strategies.
func CircularPermutations(elems []graph.Vertex) [][]graph.Vertex {
	if len(elems) == 0 {
		return nil
	}
	sorted := make([]graph.Vertex, len(elems))
	copy(sorted, elems)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rest := sorted[1:]
	var out [][]graph.Vertex
	permute(rest, 0, func(p []graph.Vertex) {
		cyc := make([]graph.Vertex, 0, len(elems))
		cyc = append(cyc, sorted[0])
		cyc = append(cyc, p...)
		out = append(out, cyc)
	})
	return out
}

func permute(xs []graph.Vertex, i int, emit func([]graph.Vertex)) {
	if i == len(xs) {
		emit(xs)
		return
	}
	for j := i; j < len(xs); j++ {
		xs[i], xs[j] = xs[j], xs[i]
		permute(xs, i+1, emit)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// successor returns the element after v in the cyclic order, or NoVertex
// if v is absent.
func successor(cycle []graph.Vertex, v graph.Vertex) graph.Vertex {
	for i, x := range cycle {
		if x == v {
			return cycle[(i+1)%len(cycle)]
		}
	}
	return graph.NoVertex
}

// HubStrategy is one admissible routing strategy for the counterexample
// families: a circular permutation applied at the hub, plus (when the hub
// is the origin) the initial forwarding direction.
type HubStrategy struct {
	// Perm is the cyclic successor order over the hub's neighbours.
	Perm []graph.Vertex
	// Initial is the hub's first forwarding direction when the hub is the
	// origin; NoVertex otherwise.
	Initial graph.Vertex
}

// String renders the strategy for table output.
func (h HubStrategy) String() string {
	s := fmt.Sprintf("%v", h.Perm)
	if h.Initial != graph.NoVertex {
		s += fmt.Sprintf("→%d", h.Initial)
	}
	return s
}

// replay walks the transcript f from inst.S to inst.T under Observation
// 1's loop criterion. A transcript reads the topology by design, so it
// walks over k = 0 views, which carry only the current node.
func replay(inst gen.Instance, f route.Func, predecessorAware bool) *sim.Result {
	p := prep.NewPreprocessor(inst.G, 0, 0, prep.CacheOptions{})
	return sim.Run(p, f, inst.S, inst.T, sim.Options{DetectLoops: true, PredecessorAware: predecessorAware})
}

// ReplayHub simulates the strategy walk on an instance: the hub applies
// the strategy; every other node behaves as Lemma 1 dictates (degree-2
// nodes pass the message through, degree-1 nodes bounce it back). It
// reports the walk outcome under Observation 1's loop criterion.
func ReplayHub(inst gen.Instance, hub graph.Vertex, strat HubStrategy) *sim.Result {
	g := inst.G
	f := func(_, _, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		if u == hub {
			if v == graph.NoVertex {
				if strat.Initial == graph.NoVertex {
					return graph.NoVertex, fmt.Errorf("adversary: hub strategy needs an initial direction")
				}
				return strat.Initial, nil
			}
			next := successor(strat.Perm, v)
			if next == graph.NoVertex {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("adversary: arrival %d not in the hub permutation", v)
			}
			return next, nil
		}
		//klocal:allow replay harness enacts the Lemma 1 forced behavior, not a k-local algorithm; off-hub hops need only degree-≤2 adjacency
		adj := g.Adj(u)
		switch len(adj) {
		case 1:
			return adj[0], nil
		case 2:
			if v == adj[0] {
				return adj[1], nil
			}
			if v == adj[1] {
				return adj[0], nil
			}
			// First send from a degree-2 origin: the families never
			// originate off the hub except through a degree-1 s, so any
			// deterministic choice works; take the lower rank.
			return adj[0], nil
		default:
			//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
			return graph.NoVertex, fmt.Errorf("adversary: unexpected degree-%d node %d off the hub", len(adj), u)
		}
	}
	return replay(inst, f, true)
}

// Theorem1Result is the replay of Theorem 1's proof: the outcome of each
// of the six circular-permutation strategies on each of the three family
// variants — Table 3 of the paper.
type Theorem1Result struct {
	Family     *gen.Theorem1Family
	Strategies []HubStrategy
	// Outcomes[i][j] is strategy i on variant j.
	Outcomes [][]sim.Outcome
}

// ReplayTheorem1 enumerates all strategies against the family of size n.
func ReplayTheorem1(n int) (*Theorem1Result, error) {
	fam, err := gen.NewTheorem1Family(n)
	if err != nil {
		return nil, err
	}
	res := &Theorem1Result{Family: fam}
	for _, perm := range CircularPermutations(fam.ArmRoots[:]) {
		res.Strategies = append(res.Strategies, HubStrategy{Perm: perm, Initial: graph.NoVertex})
	}
	for _, strat := range res.Strategies {
		var row []sim.Outcome
		for _, inst := range fam.Variants {
			row = append(row, ReplayHub(inst, fam.Hub, strat).Outcome)
		}
		res.Outcomes = append(res.Outcomes, row)
	}
	return res, nil
}

// EveryStrategyDefeated reports whether each strategy fails on at least
// one variant — the statement of Theorem 1 (and 2).
func everyStrategyDefeated(outcomes [][]sim.Outcome) bool {
	for _, row := range outcomes {
		defeated := false
		for _, o := range row {
			if o != sim.Delivered {
				defeated = true
			}
		}
		if !defeated {
			return false
		}
	}
	return true
}

// EveryStrategyDefeated reports Theorem 1's conclusion for this replay.
func (r *Theorem1Result) EveryStrategyDefeated() bool { return everyStrategyDefeated(r.Outcomes) }

// Theorem2Result is the replay of Theorem 2's proof: two circular
// permutations × three initial directions at the origin hub — Table 4.
type Theorem2Result struct {
	Family     *gen.Theorem2Family
	Strategies []HubStrategy
	Outcomes   [][]sim.Outcome
}

// ReplayTheorem2 enumerates all six strategies against the family.
func ReplayTheorem2(n int) (*Theorem2Result, error) {
	fam, err := gen.NewTheorem2Family(n)
	if err != nil {
		return nil, err
	}
	res := &Theorem2Result{Family: fam}
	for _, perm := range CircularPermutations(fam.ArmRoots[:]) {
		for _, initial := range fam.ArmRoots {
			res.Strategies = append(res.Strategies, HubStrategy{Perm: perm, Initial: initial})
		}
	}
	for _, strat := range res.Strategies {
		var row []sim.Outcome
		for _, inst := range fam.Variants {
			row = append(row, ReplayHub(inst, fam.Hub, strat).Outcome)
		}
		res.Outcomes = append(res.Outcomes, row)
	}
	return res, nil
}

// EveryStrategyDefeated reports Theorem 2's conclusion for this replay.
func (r *Theorem2Result) EveryStrategyDefeated() bool { return everyStrategyDefeated(r.Outcomes) }

// Theorem3Result replays Theorem 3: a predecessor-oblivious walk commits
// a fixed port at every node, so the only free choice at the origin is
// the initial direction; each choice fails on one of the two path
// variants.
type Theorem3Result struct {
	Family *gen.Theorem3Family
	// Outcomes[d][j]: initial direction d (0 = toward the lower-labelled
	// neighbour, 1 = the other) on variant j.
	Outcomes [2][2]sim.Outcome
}

// ReplayTheorem3 simulates both initial directions on both variants.
// Off-origin nodes forward outward (away from the origin) — any fixed
// port assignment yields the same conclusion, since the walk loops as
// soon as any node repeats.
func ReplayTheorem3(n int) (*Theorem3Result, error) {
	fam, err := gen.NewTheorem3Family(n)
	if err != nil {
		return nil, err
	}
	res := &Theorem3Result{Family: fam}
	for d := 0; d < 2; d++ {
		for j, inst := range fam.Variants {
			res.Outcomes[d][j] = replayDirectional(inst, d).Outcome
		}
	}
	return res, nil
}

func replayDirectional(inst gen.Instance, dir int) *sim.Result {
	g := inst.G
	distS := g.BFS(inst.S)
	f := func(_, _, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		//klocal:allow directional replay enacts a fixed adversary transcript over the generator instance, not a k-local algorithm
		adj := g.Adj(u)
		if u == inst.S {
			return adj[dir%len(adj)], nil
		}
		// Fixed outward port: the neighbour farther from s; path ends
		// bounce to their only neighbour.
		best := adj[0]
		for _, w := range adj {
			if distS[w] > distS[best] {
				best = w
			}
		}
		return best, nil
	}
	return replay(inst, f, false)
}

// EveryStrategyDefeated reports Theorem 3's conclusion.
func (r *Theorem3Result) EveryStrategyDefeated() bool {
	for d := 0; d < 2; d++ {
		defeated := false
		for j := 0; j < 2; j++ {
			if r.Outcomes[d][j] != sim.Delivered {
				defeated = true
			}
		}
		if !defeated {
			return false
		}
	}
	return true
}
