package prep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"klocal/internal/gen"
	"klocal/internal/graph"
)

// Property-based checks (testing/quick) of the preprocessing invariants.

func TestQuickRoutingSubgraphWithinRaw(t *testing.T) {
	// G'_k(u) ⊆ G_k(u): every routing vertex/edge appears in the raw view,
	// and no dormant edge survives.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(18)
		g := gen.RandomConnected(rng, n, 0.2)
		u := graph.Vertex(rng.Intn(n))
		k := 1 + rng.Intn(5)
		v := PreprocessStore(g, u, k, PolicyMinRank)
		raw, routing := decode(v.C.Raw), decode(v.RoutingHalf().Routing)
		for _, e := range routing.Edges() {
			if !raw.HasEdge(e.U, e.V) {
				return false
			}
			if v.IsDormant(e) {
				return false
			}
		}
		for _, w := range routing.Vertices() {
			if !raw.HasVertex(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoutingDistancesBounded(t *testing.T) {
	// Routing distances never undercut raw distances and never exceed k.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(18)
		g := gen.RandomConnected(rng, n, 0.2)
		u := graph.Vertex(rng.Intn(n))
		k := 1 + rng.Intn(5)
		v := PreprocessStore(g, u, k, PolicyMinRank)
		rcv := v.RoutingHalf().Routing
		for li, w := range rcv.Verts {
			d := int(rcv.Dist[li])
			if d > k {
				return false
			}
			if raw := distOf(v.C.Raw, w); raw < 0 || d < raw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickPolicyChoicesAreExtremes(t *testing.T) {
	// Whenever both policies classify dormant edges on the same graph,
	// the min-rank policy's first dormant edge is never outranked by the
	// max-rank policy's (they pick opposite extremes of short cycles).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(14)
		g := gen.RandomConnected(rng, n, 0.3)
		u := graph.Vertex(rng.Intn(n))
		k := 2 + rng.Intn(4)
		vMin := PreprocessStore(g, u, k, PolicyMinRank)
		vMax := PreprocessStore(g, u, k, PolicyMaxRank)
		dMin, dMax := vMin.RoutingHalf().Dormant, vMax.RoutingHalf().Dormant
		if len(dMin) == 0 || len(dMax) == 0 {
			return len(dMin) == len(dMax)
		}
		minFirst := dMin[0]
		maxLast := dMax[len(dMax)-1]
		return !maxLast.Less(minFirst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDormantCountsMatchAcrossPolicies(t *testing.T) {
	// Both policies remove one edge per short cycle class; the dormant
	// sets can differ but the routing view stays connected to every raw
	// vertex within reach (no over-pruning).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(14)
		g := gen.RandomConnected(rng, n, 0.25)
		u := graph.Vertex(rng.Intn(n))
		k := 2 + rng.Intn(4)
		for _, pol := range []Policy{PolicyMinRank, PolicyMaxRank} {
			routing := decode(PreprocessStore(g, u, k, pol).RoutingHalf().Routing)
			if !routing.Connected() {
				return false
			}
			if !routing.HasVertex(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
