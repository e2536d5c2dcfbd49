package adversary

import (
	"fmt"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/sim"
)

// Exhaustive strategy checks. Tables 3 and 4 replay the paper's *reduced*
// strategy sets (the circular permutations Lemma 1 forces on successful
// algorithms). The functions here drop the reduction and check EVERY
// function at the hub — all d^d successor maps, including
// non-permutations, permutations with fixed points, and multi-cycle
// derangements — against a family that also realizes the witness graphs
// of Lemma 1's three proof cases (every (s-arm, t-arm) assignment with
// the remaining arms joined). Together with the forced behaviour of
// degree ≤ 2 nodes, this is a finite computational proof of the
// Theorem 1 and 2 lower bounds.

// hubFunction is an arbitrary map from arrival arm to forwarding arm
// (indices into the hub's neighbour list), plus the initial direction
// when the hub is the origin.
type hubFunction struct {
	next    []int // next[i] = forwarding port on arrival from port i
	initial int   // first forwarding port when the hub originates
}

// enumerateHubFunctions yields all d^d successor maps.
func enumerateHubFunctions(d int, withInitial bool, emit func(hubFunction)) {
	next := make([]int, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			if withInitial {
				for ini := 0; ini < d; ini++ {
					cp := make([]int, d)
					copy(cp, next)
					emit(hubFunction{next: cp, initial: ini})
				}
			} else {
				cp := make([]int, d)
				copy(cp, next)
				emit(hubFunction{next: cp, initial: -1})
			}
			return
		}
		for p := 0; p < d; p++ {
			next[i] = p
			rec(i + 1)
		}
	}
	rec(0)
}

// theorem1Instance builds the generalized Theorem 1 graph on n nodes:
// four arms of r = ⌊(n−3)/4⌋ vertices at hub 0, s hanging off arm sArm's
// far end (with padding), t off arm tArm's far end, and the remaining two
// arms either joined at their far ends (the paper's Figure 3 shape, which
// defeats the circular permutations) or left as dead ends (Lemma 1's
// independent-component witnesses, which defeat the multi-cycle
// derangements the joins accidentally bridge). sArm ≠ tArm.
func theorem1Instance(n, sArm, tArm int, joined bool) (gen.Instance, [4]graph.Vertex, error) {
	var roots [4]graph.Vertex
	r := (n - 3) / 4
	if r < 2 || sArm == tArm || sArm < 0 || sArm > 3 || tArm < 0 || tArm > 3 {
		return gen.Instance{}, roots, fmt.Errorf("adversary: bad generalized Theorem 1 parameters")
	}
	extra := n - (4*r + 3)
	arm := func(a, i int) graph.Vertex { return graph.Vertex(1 + a*r + i) }
	for a := 0; a < 4; a++ {
		roots[a] = arm(a, 0)
	}
	b := graph.NewBuilder()
	for a := 0; a < 4; a++ {
		prev := graph.Vertex(0)
		for i := 0; i < r; i++ {
			b.AddEdge(prev, arm(a, i))
			prev = arm(a, i)
		}
	}
	s := graph.Vertex(4*r + extra + 1)
	t := graph.Vertex(4*r + extra + 2)
	prev := arm(sArm, r-1)
	for x := 0; x < extra; x++ {
		pad := graph.Vertex(4*r + 1 + x)
		b.AddEdge(prev, pad)
		prev = pad
	}
	b.AddEdge(prev, s)
	b.AddEdge(arm(tArm, r-1), t)
	if joined {
		var rest []int
		for a := 0; a < 4; a++ {
			if a != sArm && a != tArm {
				rest = append(rest, a)
			}
		}
		b.AddEdge(arm(rest[0], r-1), arm(rest[1], r-1))
	}
	return gen.Instance{G: b.Build(), S: s, T: t}, roots, nil
}

// replayHubFunction simulates an arbitrary hub function on an instance,
// with the Lemma-1-forced behaviour elsewhere (degree-2 pass-through,
// degree-1 bounce).
func replayHubFunction(inst gen.Instance, hub graph.Vertex, roots []graph.Vertex, fn hubFunction) sim.Outcome {
	g := inst.G
	idxOf := func(v graph.Vertex) int {
		for i, r := range roots {
			if r == v {
				return i
			}
		}
		return -1
	}
	f := func(_, _, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
		u := view.Center
		if u == hub {
			if v == graph.NoVertex {
				if fn.initial < 0 {
					return graph.NoVertex, fmt.Errorf("adversary: hub cannot originate without an initial port")
				}
				return roots[fn.initial], nil
			}
			i := idxOf(v)
			if i < 0 {
				//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
				return graph.NoVertex, fmt.Errorf("adversary: arrival %d not a hub port", v)
			}
			return roots[fn.next[i]], nil
		}
		//klocal:allow exhaustive search enumerates all routing functions as transcripts (Lemma 1); the replay is not a k-local algorithm
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
			return adj[0], nil
		default:
			return graph.NoVertex, fmt.Errorf("adversary: unexpected degree off the hub")
		}
	}
	return replay(inst, f, true).Outcome
}

// ExhaustiveTheorem1Result summarizes the full 256-function check.
type ExhaustiveTheorem1Result struct {
	N         int
	Functions int // 4^4 = 256
	Defeated  int // functions failing on at least one instance
	Instances int // 24: 12 (sArm, tArm) assignments × {joined, dead-end}
}

// ExhaustiveTheorem1 checks every successor map at the degree-4 hub
// against every generalized family member. AllDefeated (Defeated ==
// Functions) is the computational form of Theorem 1's "every
// origin-aware predecessor-aware k-local algorithm fails".
func ExhaustiveTheorem1(n int) (*ExhaustiveTheorem1Result, error) {
	var instances []gen.Instance
	var rootSets [][]graph.Vertex
	for sArm := 0; sArm < 4; sArm++ {
		for tArm := 0; tArm < 4; tArm++ {
			if sArm == tArm {
				continue
			}
			for _, joined := range []bool{true, false} {
				inst, roots, err := theorem1Instance(n, sArm, tArm, joined)
				if err != nil {
					return nil, err
				}
				instances = append(instances, inst)
				rootSets = append(rootSets, roots[:])
			}
		}
	}
	res := &ExhaustiveTheorem1Result{N: n, Instances: len(instances)}
	enumerateHubFunctions(4, false, func(fn hubFunction) {
		res.Functions++
		for i, inst := range instances {
			if replayHubFunction(inst, 0, rootSets[i], fn) != sim.Delivered {
				res.Defeated++
				return
			}
		}
	})
	return res, nil
}

// AllDefeated reports whether no hub function survived.
func (r *ExhaustiveTheorem1Result) AllDefeated() bool { return r.Defeated == r.Functions }

// ExhaustiveTheorem2Result summarizes the 27×3-strategy check at the
// degree-3 origin hub.
type ExhaustiveTheorem2Result struct {
	N          int
	Strategies int // 3^3 maps × 3 initial directions = 81
	Defeated   int
	Instances  int // 3 on-hub variants + 6 off-hub Corollary 1 witnesses
}

// theorem2OffHubInstance builds a Corollary 1 witness: the same 3-arm
// hub, but with the origin hanging off arm sArm (through padding) and t
// off arm tArm; the third arm is a plain dead end. An origin-oblivious
// hub function must serve these instances with the same successor map,
// which is what defeats the non-circular maps the three on-hub variants
// miss.
func theorem2OffHubInstance(n, sArm, tArm int) (gen.Instance, [3]graph.Vertex, error) {
	var roots [3]graph.Vertex
	r := (n - 3) / 3
	if r < 2 || sArm == tArm || sArm < 0 || sArm > 2 || tArm < 0 || tArm > 2 {
		return gen.Instance{}, roots, fmt.Errorf("adversary: bad off-hub Theorem 2 parameters")
	}
	extra := n - (3*r + 3)
	arm := func(a, i int) graph.Vertex { return graph.Vertex(1 + a*r + i) }
	for a := 0; a < 3; a++ {
		roots[a] = arm(a, 0)
	}
	b := graph.NewBuilder()
	for a := 0; a < 3; a++ {
		prev := graph.Vertex(0)
		for i := 0; i < r; i++ {
			b.AddEdge(prev, arm(a, i))
			prev = arm(a, i)
		}
	}
	s := graph.Vertex(3*r + extra + 1)
	t := graph.Vertex(3*r + extra + 2)
	prev := arm(sArm, r-1)
	for x := 0; x < extra; x++ {
		pad := graph.Vertex(3*r + 1 + x)
		b.AddEdge(prev, pad)
		prev = pad
	}
	b.AddEdge(prev, s)
	b.AddEdge(arm(tArm, r-1), t)
	return gen.Instance{G: b.Build(), S: s, T: t}, roots, nil
}

// ExhaustiveTheorem2 checks every (successor map, initial direction)
// pair at the hub against the three on-hub variants *and* the six
// off-hub Corollary 1 witnesses (origin-obliviousness means the same
// successor map must serve all of them) — the computational form of
// Theorem 2's lower bound.
func ExhaustiveTheorem2(n int) (*ExhaustiveTheorem2Result, error) {
	fam, err := gen.NewTheorem2Family(n)
	if err != nil {
		return nil, err
	}
	type offHub struct {
		inst  gen.Instance
		roots [3]graph.Vertex
	}
	var witnesses []offHub
	for sArm := 0; sArm < 3; sArm++ {
		for tArm := 0; tArm < 3; tArm++ {
			if sArm == tArm {
				continue
			}
			inst, roots, err := theorem2OffHubInstance(n, sArm, tArm)
			if err != nil {
				return nil, err
			}
			witnesses = append(witnesses, offHub{inst: inst, roots: roots})
		}
	}
	res := &ExhaustiveTheorem2Result{N: n, Instances: len(fam.Variants) + len(witnesses)}
	enumerateHubFunctions(3, true, func(fn hubFunction) {
		res.Strategies++
		for _, inst := range fam.Variants {
			if replayHubFunction(inst, fam.Hub, fam.ArmRoots[:], fn) != sim.Delivered {
				res.Defeated++
				return
			}
		}
		for _, w := range witnesses {
			if replayHubFunction(w.inst, 0, w.roots[:], fn) != sim.Delivered {
				res.Defeated++
				return
			}
		}
	})
	return res, nil
}

// AllDefeated reports whether no strategy survived.
func (r *ExhaustiveTheorem2Result) AllDefeated() bool { return r.Defeated == r.Strategies }
