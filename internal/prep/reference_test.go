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

// diffFamilies is every generator family the repo ships plus the paper's
// Fig 13 and Fig 17 constructions, each relabelled adversarially: the
// paper's tie-breaks are rank-based, so the generators' tidy labels
// would hide index-order bugs.
func diffFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	fig13, err := gen.NewFig13(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	fig17, err := gen.NewFig17(28, 7)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string]*graph.Graph{
		"random":      gen.RandomConnected(rng, 22, 0.2),
		"tree":        gen.RandomTree(rng, 18),
		"path":        gen.Path(12),
		"cycle":       gen.Cycle(13),
		"star":        gen.Star(9),
		"spider":      gen.Spider(3, 4),
		"lollipop":    gen.Lollipop(9, 6),
		"theta":       gen.Theta(2, 3, 4),
		"grid":        gen.Grid(4, 5),
		"wheel":       gen.Wheel(10),
		"barbell":     gen.Barbell(4, 3),
		"complete":    gen.Complete(7),
		"caterpillar": gen.Caterpillar(5, 2),
		"hypercube":   gen.Hypercube(4),
		"binarytree":  gen.BinaryTree(4),
		"isolated":    graph.NewBuilder().AddCycle(0, 1, 2).AddVertex(7).Build(),
		"fig13":       fig13.G,
		"fig17":       fig17.G,
	}
	out := make(map[string]*graph.Graph, len(raw))
	for name, g := range raw {
		out[name] = g.PermuteLabels(gen.RandomLabelPermutation(rng, g))
	}
	return out
}

// TestPreprocessMatchesRef is the prep-level view-equality differential:
// the compact-native pipeline must produce, field for field, the view
// the map-shaped reference preprocessing encodes — on every family,
// under both dormancy policies, at k ∈ {1, 2, 3} and at each algorithm's
// threshold T(n), over graph-backed, CSR-backed and opaque stores. The
// degenerate cases ride along: k = 0, an isolated vertex, and an absent
// centre. Views of all sizes pass through the same pooled builder, so
// state leaking from one build into the next shows up too.
func TestPreprocessMatchesRef(t *testing.T) {
	for name, g := range diffFamilies(t) {
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
			for _, pol := range []Policy{PolicyMinRank, PolicyMaxRank} {
				for _, u := range append(g.Vertices(), absent) {
					want := PreprocessRef(g, u, k, pol).Encode()
					for _, s := range stores {
						got := PreprocessStore(s.st, u, k, pol)
						if err := DiffViews(got, want); err != nil {
							t.Fatalf("%s (n=%d) %s store, %s, k=%d, u=%d: %v", name, n, s.name, pol, k, u, err)
						}
					}
				}
			}
		}
	}
}
