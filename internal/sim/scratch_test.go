package sim

import (
	"math/rand"
	"slices"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// TestReusedScratchMatchesFresh routes on one scratch across stores,
// sizes and policies, as an engine lane, a cluster walker or a netsim
// node does for its whole life: a 100×100 grid at k = 3 under the
// min-rank policy, a 12-vertex graph at T(n), the grid again under the
// zero policy, and a CSR grid. Every walk must equal the walk on a fresh
// scratch, and every view it decided at — routing half built on the
// reused scratch — must equal a view built on a fresh scratch. State
// that one build leaves in the scratch and the next reads (a stale
// dormant list, a slot not zeroed, a bank not resized) shows up here.
func TestReusedScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	grid := gen.Grid(100, 100)
	small := gen.RandomConnected(rng, 12, 0.25)
	csr, err := gen.GridCSR(60, 60)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		alg  route.Algorithm
		st   bigraph.Store
		k    int
	}{
		{"grid/min-rank", route.Algorithm1B(), grid, 3},
		{"small/T(n)", route.Algorithm1B(), small, route.MinK1(small.N())},
		{"grid/zero", route.Algorithm3(), grid, 3},
		{"csr", route.Algorithm2(), csr, 3},
	}
	sc := NewScratch()
	for _, step := range steps {
		p := prep.NewPreprocessor(step.st, step.k, step.alg.Policy, prep.CacheOptions{})
		reused, fresh := Over(step.alg, p), Bind(step.alg, step.st, step.k)
		var vs []graph.Vertex
		step.st.EachVertex(func(v graph.Vertex) bool {
			vs = append(vs, v)
			return true
		})
		for i := 0; i < 40; i++ {
			s, dst := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
			got := reused.RunScratch(s, dst, 64, sc).Clone()
			want := fresh.RunScratch(s, dst, 64, NewScratch())
			if got.Outcome != want.Outcome || !slices.Equal(got.Route, want.Route) {
				t.Fatalf("%s: %d→%d on the reused scratch %v %v, fresh %v %v", step.name, s, dst, got.Outcome, got.Route, want.Outcome, want.Route)
			}
			for _, u := range got.Route {
				view := p.At(u, &sc.views)
				view.RoutingHalfScratch(&sc.views)
				fsc := prep.NewScratch()
				ref := prep.NewPreprocessor(step.st, step.k, step.alg.Policy, prep.CacheOptions{}).At(u, fsc)
				ref.RoutingHalfScratch(fsc)
				if err := prep.DiffViews(view, ref); err != nil {
					t.Fatalf("%s: view at %d on the reused scratch: %v", step.name, u, err)
				}
			}
		}
	}
}
