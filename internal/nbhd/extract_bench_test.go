package nbhd

import (
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// BenchmarkScratchExtract times the production extraction,
// Scratch.Extract, on three shapes: a 100×100 grid and the 10⁶-vertex
// CSR grid at k = 3 (churn-patch's and scale-cold's views), and the
// lollipop route-warm serves, at Algorithm 2's T(n). Each op extracts
// one view, cycling over sources spread across the graph.
func BenchmarkScratchExtract(b *testing.B) {
	csr, err := gen.GridCSR(1000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	const lollipopN = 512
	cases := []struct {
		name string
		st   bigraph.Store
		n, k int
	}{
		{"grid-100x100", gen.Grid(100, 100), 100 * 100, 3},
		{"lollipop-512", gen.Lollipop(lollipopN-lollipopN/3, lollipopN/3), lollipopN, (lollipopN + 2) / 3},
		{"csr-1000x1000", csr, 1000 * 1000, 3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			srcs := make([]graph.Vertex, 0, 64)
			for i := 0; i < cap(srcs); i++ {
				srcs = append(srcs, graph.Vertex((i*7919)%tc.n))
			}
			sc := NewScratch()
			for _, u := range srcs { // size the scratch
				sc.Extract(tc.st, u, tc.k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sc.Extract(tc.st, srcs[i%len(srcs)], tc.k) {
					b.Fatal("absent centre")
				}
			}
		})
	}
}
