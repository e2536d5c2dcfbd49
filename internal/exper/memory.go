package exper

import (
	"fmt"
	"io"
	"math/rand"

	"klocal/internal/flood"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
	"klocal/internal/stateful"
	"klocal/internal/tables"
)

// MemoryRow is one scheme in the locality-versus-memory landscape the
// paper's introduction and Section 6.3 frame: what a node must store,
// what the message must carry, and the dilation bought with it.
type MemoryRow struct {
	Scheme string
	// NodeBits is the largest per-node memory (tables, or the
	// k-neighbourhood a k-local algorithm consults).
	NodeBits int
	// MessageBits is the message-carried state (0 for the paper's
	// stateless model).
	MessageBits int
	// WorstDilation over the sampled pairs (MaxDilation-free: only
	// delivered pairs counted; all schemes here guarantee delivery).
	WorstDilation float64
	// Delivered / Pairs sampled.
	Delivered, Pairs int
	// AdversarialLabels reports whether the scheme survives the paper's
	// label-permutation adversary (interval routing does not: it renames
	// nodes).
	AdversarialLabels bool
}

// MemoryResult is the landscape at one network.
type MemoryResult struct {
	N, M int
	Rows []MemoryRow
	// FloodTransmissions is the flooding strawman's cost for one message
	// (for contrast with route lengths).
	FloodTransmissions int
}

// MemoryDilation measures the trade-off on a random connected network of
// size n, sampling `pairs` ordered pairs per scheme.
func MemoryDilation(rng *rand.Rand, n, pairs int) (*MemoryResult, error) {
	g := gen.RandomConnected(rng, n, 0.1)
	res := &MemoryResult{N: g.N(), M: g.M()}
	vs := g.Vertices()
	samplePairs := func(f func(s, t graph.Vertex) (hops int, ok bool)) (worst float64, delivered, total int) {
		for i := 0; i < pairs; i++ {
			s := vs[rng.Intn(len(vs))]
			t := vs[rng.Intn(len(vs))]
			if s == t {
				continue
			}
			total++
			hops, ok := f(s, t)
			if !ok {
				continue
			}
			delivered++
			if d := g.Dist(s, t); d > 0 {
				if dil := float64(hops) / float64(d); dil > worst {
					worst = dil
				}
			}
		}
		return worst, delivered, total
	}

	// Full tables.
	ft, err := tables.BuildFullTables(g)
	if err != nil {
		return nil, err
	}
	addAlgorithm := func(name string, alg route.Algorithm, k, nodeBits, msgBits int, advLabels bool) {
		w := sim.Bind(alg, g, k)
		worst, delivered, total := samplePairs(func(s, t graph.Vertex) (int, bool) {
			r := w.Run(s, t)
			return r.Len(), r.Outcome == sim.Delivered
		})
		res.Rows = append(res.Rows, MemoryRow{
			Scheme:            name,
			NodeBits:          nodeBits,
			MessageBits:       msgBits,
			WorstDilation:     worst,
			Delivered:         delivered,
			Pairs:             total,
			AdversarialLabels: advLabels,
		})
	}
	addAlgorithm("FullTables", ft.Algorithm(), 0, ft.MaxBits(), 0, true)

	ti, err := tables.BuildTreeInterval(g, g.MinVertex())
	if err != nil {
		return nil, err
	}
	addAlgorithm("TreeInterval", ti.Algorithm(), 0, ti.MaxBits(), 0, false)

	kBits := func(k int) int {
		max := 0
		for _, u := range vs {
			if b := tables.KLocalBits(g, u, k); b > max {
				max = b
			}
		}
		return max
	}
	addAlgorithm("Algorithm1 (k=n/4)", route.Algorithm1(), route.MinK1(n), kBits(route.MinK1(n)), 0, true)
	addAlgorithm("Algorithm2 (k=n/3)", route.Algorithm2(), route.MinK2(n), kBits(route.MinK2(n)), 0, true)
	addAlgorithm("Algorithm3 (k=n/2)", route.Algorithm3(), route.MinK3(n), kBits(route.MinK3(n)), 0, true)

	// Stateful DFS: node memory none beyond adjacency, message Θ(n log n).
	peakBits := 0
	worst, delivered, total := samplePairs(func(s, t graph.Vertex) (int, bool) {
		r, err := stateful.DFSRoute(g, s, t)
		if err != nil {
			return 0, false
		}
		if r.PeakStateBits > peakBits {
			peakBits = r.PeakStateBits
		}
		return r.Len(), r.Delivered
	})
	res.Rows = append(res.Rows, MemoryRow{
		Scheme:            "DFS (k=1, stateful)",
		NodeBits:          0,
		MessageBits:       peakBits,
		WorstDilation:     worst,
		Delivered:         delivered,
		Pairs:             total,
		AdversarialLabels: true,
	})

	// Flooding strawman for contrast: flood to the vertex farthest from
	// vs[0] so the flood covers real ground before delivering.
	farthest, bestD := vs[0], -1
	for v, d := range g.BFS(vs[0]) {
		if d > bestD || (d == bestD && v < farthest) {
			farthest, bestD = v, d
		}
	}
	fl, err := flood.Flood(g, vs[0], farthest, 2*n)
	if err != nil {
		return nil, err
	}
	res.FloodTransmissions = fl.Transmissions
	return res, nil
}

// Render prints the landscape.
func (r *MemoryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Memory vs dilation (Section 1 / 6.3 framing), n=%d m=%d\n", r.N, r.M)
	fmt.Fprintf(w, "%-22s %-12s %-12s %-12s %-12s %s\n",
		"scheme", "node bits", "msg bits", "worst dil", "delivered", "adversarial labels")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %-12d %-12d %-12.3f %4d/%-7d %v\n",
			row.Scheme, row.NodeBits, row.MessageBits, row.WorstDilation,
			row.Delivered, row.Pairs, row.AdversarialLabels)
	}
	fmt.Fprintf(w, "flooding strawman: %d transmissions for a single delivery\n", r.FloodTransmissions)
}
