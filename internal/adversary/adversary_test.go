package adversary

import (
	"testing"

	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
)

func TestCircularPermutationsCounts(t *testing.T) {
	tests := []struct {
		give []graph.Vertex
		want int
	}{
		{[]graph.Vertex{1}, 1},
		{[]graph.Vertex{1, 2}, 1},
		{[]graph.Vertex{1, 2, 3}, 2},
		{[]graph.Vertex{1, 2, 3, 4}, 6},
		{[]graph.Vertex{1, 2, 3, 4, 5}, 24},
	}
	for _, tt := range tests {
		got := CircularPermutations(tt.give)
		if len(got) != tt.want {
			t.Errorf("CircularPermutations(%v): %d results, want %d", tt.give, len(got), tt.want)
		}
		for _, cyc := range got {
			if cyc[0] != tt.give[0] {
				t.Errorf("cycle %v not anchored at %d", cyc, tt.give[0])
			}
		}
	}
	if CircularPermutations(nil) != nil {
		t.Error("empty input should give no permutations")
	}
}

func TestCircularPermutationsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, cyc := range CircularPermutations([]graph.Vertex{1, 2, 3, 4}) {
		key := ""
		for _, v := range cyc {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Errorf("duplicate permutation %v", cyc)
		}
		seen[key] = true
	}
}

func TestSuccessor(t *testing.T) {
	cyc := []graph.Vertex{1, 3, 2}
	if got := successor(cyc, 1); got != 3 {
		t.Errorf("successor(1) = %d, want 3", got)
	}
	if got := successor(cyc, 2); got != 1 {
		t.Errorf("successor(2) = %d, want 1 (wrap)", got)
	}
	if got := successor(cyc, 9); got != graph.NoVertex {
		t.Errorf("successor of absent element = %d, want NoVertex", got)
	}
}

// expectTable3 is Table 3 of the paper: for each circular permutation of
// (P1 P2 P3 P4), the variant it fails on (0-based). Our enumeration
// anchors at P1's root and generates the permutations of the remaining
// arms in a fixed order; the mapping below was verified by hand against
// the paper's rows.
func expectTable3() map[string]int {
	// Key: order of arms after P1 in the cycle (as arm indices 2,3,4).
	return map[string]int{
		"234": 1, // (P1 P2 P3 P4) fails G2
		"243": 2, // (P1 P2 P4 P3) fails G3
		"324": 0, // (P1 P3 P2 P4) fails G1
		"342": 2, // (P1 P3 P4 P2) fails G3
		"423": 0, // (P1 P4 P2 P3) fails G1
		"432": 1, // (P1 P4 P3 P2) fails G2
	}
}

func TestReplayTheorem1MatchesTable3(t *testing.T) {
	for _, n := range []int{11, 14, 19, 23, 31} {
		res, err := ReplayTheorem1(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Strategies) != 6 {
			t.Fatalf("n=%d: %d strategies, want 6", n, len(res.Strategies))
		}
		if !res.EveryStrategyDefeated() {
			t.Fatalf("n=%d: some strategy succeeded on all variants", n)
		}
		want := expectTable3()
		armIdx := func(v graph.Vertex) int {
			for i, r := range res.Family.ArmRoots {
				if r == v {
					return i + 1
				}
			}
			return -1
		}
		for i, strat := range res.Strategies {
			key := ""
			for _, v := range strat.Perm[1:] {
				key += string(rune('0' + armIdx(v)))
			}
			failVariant, ok := want[key]
			if !ok {
				t.Fatalf("n=%d: unexpected permutation key %q", n, key)
			}
			for j, o := range res.Outcomes[i] {
				wantOutcome := sim.Delivered
				if j == failVariant {
					wantOutcome = sim.Looped
				}
				if o != wantOutcome {
					t.Errorf("n=%d strategy %v on variant %d: %v, want %v",
						n, strat, j, o, wantOutcome)
				}
			}
		}
	}
}

// expectTable4 is Table 4: key = permutation order of arms after P1 plus
// the initial arm, value = failing variant (0-based).
func expectTable4() map[string]int {
	return map[string]int{
		"23a": 1, "23b": 2, "23c": 0, // (P1 P2 P3) toward a, b, c
		"32a": 2, "32b": 0, "32c": 1, // (P1 P3 P2) toward a, b, c
	}
}

func TestReplayTheorem2MatchesTable4(t *testing.T) {
	for _, n := range []int{8, 11, 17, 20, 28} {
		res, err := ReplayTheorem2(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Strategies) != 6 {
			t.Fatalf("n=%d: %d strategies, want 6", n, len(res.Strategies))
		}
		if !res.EveryStrategyDefeated() {
			t.Fatalf("n=%d: some strategy succeeded on all variants", n)
		}
		want := expectTable4()
		armIdx := func(v graph.Vertex) int {
			for i, r := range res.Family.ArmRoots {
				if r == v {
					return i + 1
				}
			}
			return -1
		}
		for i, strat := range res.Strategies {
			key := ""
			for _, v := range strat.Perm[1:] {
				key += string(rune('0' + armIdx(v)))
			}
			key += string(rune('a' + armIdx(strat.Initial) - 1))
			failVariant, ok := want[key]
			if !ok {
				t.Fatalf("n=%d: unexpected strategy key %q", n, key)
			}
			for j, o := range res.Outcomes[i] {
				wantOutcome := sim.Delivered
				if j == failVariant {
					wantOutcome = sim.Looped
				}
				if o != wantOutcome {
					t.Errorf("n=%d strategy %v on variant %d: %v, want %v",
						n, strat, j, o, wantOutcome)
				}
			}
		}
	}
}

func TestReplayTheorem3(t *testing.T) {
	for _, n := range []int{6, 9, 14, 21} {
		res, err := ReplayTheorem3(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.EveryStrategyDefeated() {
			t.Fatalf("n=%d: a direction strategy succeeded on both variants", n)
		}
		// Each direction succeeds on exactly one variant.
		for d := 0; d < 2; d++ {
			delivered := 0
			for j := 0; j < 2; j++ {
				if res.Outcomes[d][j] == sim.Delivered {
					delivered++
				}
			}
			if delivered != 1 {
				t.Errorf("n=%d direction %d: %d deliveries, want exactly 1 (%v)",
					n, d, delivered, res.Outcomes[d])
			}
		}
	}
}

func TestDilationPathBoundIsAttained(t *testing.T) {
	// Algorithm 1 at k = ⌈n/4⌉ on the Theorem 4 instance takes exactly
	// the lower-bound route 2n−3k−1 over dist k+1.
	for _, n := range []int{16, 20, 33, 40} {
		k := route.MinK1(n)
		inst, err := DilationPath(n, k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		res := sim.Bind(route.Algorithm1(), inst.G, k).Run(inst.S, inst.T)
		if res.Outcome != sim.Delivered {
			t.Fatalf("n=%d k=%d: %v err=%v", n, k, res.Outcome, res.Err)
		}
		if res.Dist != k+1 {
			t.Errorf("n=%d k=%d: dist=%d want k+1", n, k, res.Dist)
		}
		if res.Len() != LowerBoundRouteLen(n, k) {
			t.Errorf("n=%d k=%d: route %d, want 2n-3k-1 = %d (route=%v)",
				n, k, res.Len(), LowerBoundRouteLen(n, k), res.Route)
		}
	}
}

func TestDilationPathAlgorithm2Tight(t *testing.T) {
	// At k = ⌈n/3⌉ the bound approaches 3, matching Theorem 7's upper
	// bound: Algorithm 2 is optimal.
	for _, n := range []int{18, 30, 45} {
		k := route.MinK2(n)
		inst, err := DilationPath(n, k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		res := sim.Bind(route.Algorithm2(), inst.G, k).Run(inst.S, inst.T)
		if res.Outcome != sim.Delivered {
			t.Fatalf("n=%d k=%d: %v err=%v", n, k, res.Outcome, res.Err)
		}
		if res.Len() != LowerBoundRouteLen(n, k) {
			t.Errorf("n=%d k=%d: route %d, want %d", n, k, res.Len(), LowerBoundRouteLen(n, k))
		}
		if got, bound := res.Dilation(), LowerBoundDilation(n, k); got < bound-1e9 {
			t.Errorf("n=%d k=%d: dilation %v below bound %v", n, k, got, bound)
		}
	}
}

func TestDilationPathInvalid(t *testing.T) {
	if _, err := DilationPath(10, 5); err == nil {
		t.Error("expected error for k >= n/2")
	}
	if _, err := DilationPath(10, 0); err == nil {
		t.Error("expected error for k < 1")
	}
	if _, err := DilationPath(8, 3); err == nil {
		t.Error("expected error for n < 2k+3")
	}
}

func TestHubStrategyString(t *testing.T) {
	s := HubStrategy{Perm: []graph.Vertex{1, 2, 3}, Initial: 2}
	if got := s.String(); got != "[1 2 3]→2" {
		t.Errorf("String() = %q", got)
	}
	s2 := HubStrategy{Perm: []graph.Vertex{1, 2}, Initial: graph.NoVertex}
	if got := s2.String(); got != "[1 2]" {
		t.Errorf("String() = %q", got)
	}
}
