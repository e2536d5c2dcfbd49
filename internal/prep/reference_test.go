package prep

import (
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// opaqueStore hides the concrete store type, forcing PreprocessStore
// onto its generic label-space extraction path.
type opaqueStore struct{ bigraph.Store }

// diffFamiliesSeed seeds diffFamilies; a failure prints it, so its
// labelling can be replayed.
const diffFamiliesSeed = 41

// family is one named test topology.
type family struct {
	name string
	g    *graph.Graph
}

// diffFamilies is every generator family the repo ships plus the paper's
// Fig 13 and Fig 17 constructions, each relabelled adversarially: the
// paper's tie-breaks are rank-based, so the generators' tidy labels
// would hide index-order bugs. The families come in name order, and the
// i-th is relabelled from seed+i, so one printed seed replays every
// labelling.
func diffFamilies(t *testing.T, seed int64) []family {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fig13, err := gen.NewFig13(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	fig17, err := gen.NewFig17(28, 7)
	if err != nil {
		t.Fatal(err)
	}
	fams := []family{
		{"barbell", gen.Barbell(4, 3)},
		{"binarytree", gen.BinaryTree(4)},
		{"caterpillar", gen.Caterpillar(5, 2)},
		{"complete", gen.Complete(7)},
		{"cycle", gen.Cycle(13)},
		{"fig13", fig13.G},
		{"fig17", fig17.G},
		{"grid", gen.Grid(4, 5)},
		{"hypercube", gen.Hypercube(4)},
		{"isolated", graph.NewBuilder().AddCycle(0, 1, 2).AddVertex(7).Build()},
		{"lollipop", gen.Lollipop(9, 6)},
		{"path", gen.Path(12)},
		{"random", gen.RandomConnected(rng, 22, 0.2)},
		{"spider", gen.Spider(3, 4)},
		{"star", gen.Star(9)},
		{"theta", gen.Theta(2, 3, 4)},
		{"tree", gen.RandomTree(rng, 18)},
		{"wheel", gen.Wheel(10)},
	}
	for i := range fams {
		g := fams[i].g
		perm := gen.RandomLabelPermutation(rand.New(rand.NewSource(seed+int64(i))), g)
		fams[i].g = g.PermuteLabels(perm)
	}
	return fams
}

// TestPreprocessMatchesRef is the prep-level view-equality differential:
// the compact-native pipeline must produce, field for field, the view
// the map-shaped reference preprocessing encodes — on every family,
// under both dormancy policies and the zero policy (no dormant edges,
// Algorithm 3's), at k ∈ {1, 2, 3} and at each algorithm's
// threshold T(n), over graph-backed, CSR-backed and opaque stores. The
// degenerate cases ride along: k = 0, an isolated vertex, and an absent
// centre. Views of all sizes pass through the same shared scratch, so
// state leaking from one build into the next shows up too.
func TestPreprocessMatchesRef(t *testing.T) {
	for _, fam := range diffFamilies(t, diffFamiliesSeed) {
		name, g := fam.name, fam.g
		n := g.N()
		ks := map[int]bool{0: true, 1: true, 2: true, 3: true, (n + 3) / 4: true, (n + 2) / 3: true, n / 2: true}
		absent := g.Vertices()[n-1] + 1
		stores := []struct {
			name string
			st   bigraph.Store
		}{
			{"graph", g},
			{"csr", bigraph.FromGraph(g)},
			{"opaque", opaqueStore{g}},
		}
		for k := range ks {
			for _, pol := range []Policy{PolicyMinRank, PolicyMaxRank, 0} {
				for _, u := range append(g.Vertices(), absent) {
					want := PreprocessRef(g, u, k, pol).Encode()
					for _, s := range stores {
						got := PreprocessStore(s.st, u, k, pol)
						if err := DiffViews(got, want); err != nil {
							t.Fatalf("%s (n=%d, seed %d) %s store, %s, k=%d, u=%d: %v", name, n, diffFamiliesSeed, s.name, pol, k, u, err)
						}
					}
				}
			}
		}
	}
}
