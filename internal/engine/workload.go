package engine

import (
	"fmt"
	"math/rand"

	"klocal/internal/adversary"
	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// Workload is a deterministic request generator: given the seed it was
// built with, the i-th Next call always yields the same request. A
// Workload is not safe for concurrent use; RunWorkload's lanes draw
// from it under one mutex.
type Workload struct {
	// Name identifies the generator in reports.
	Name string
	// Next returns the next request.
	Next func() Request
}

// StoreVertices materializes the vertex set of st in ascending label
// order — the rank list workload generators draw from. At 10^6 vertices
// this is ~8 MB, negligible next to the store itself.
func StoreVertices(st bigraph.Store) []graph.Vertex {
	vs := make([]graph.Vertex, 0, st.N())
	st.EachVertex(func(v graph.Vertex) bool {
		vs = append(vs, v)
		return true
	})
	return vs
}

// Uniform routes between independently uniform random distinct (s, t)
// pairs — the throughput baseline.
func Uniform(rng *rand.Rand, st bigraph.Store) Workload {
	vs := StoreVertices(st)
	return Workload{
		Name: "uniform",
		Next: func() Request {
			s := vs[rng.Intn(len(vs))]
			t := vs[rng.Intn(len(vs))]
			for t == s {
				t = vs[rng.Intn(len(vs))]
			}
			return Request{S: s, T: t}
		},
	}
}

// ZipfSkew is the default Zipf exponent for Zipf workloads.
const ZipfSkew = 1.2

// Zipf routes from uniform random sources to Zipf-skewed destinations
// (rank r drawn with probability ∝ 1/(1+r)^skew over the label-sorted
// vertex list) — the "popular destination" traffic shape that makes the
// per-source view cache earn its keep. skew ≤ 1 uses ZipfSkew.
func Zipf(rng *rand.Rand, st bigraph.Store, skew float64) Workload {
	vs := StoreVertices(st) // label-sorted: rank = label order
	if skew <= 1 {
		skew = ZipfSkew
	}
	z := rand.NewZipf(rng, skew, 1, uint64(len(vs)-1))
	return Workload{
		Name: "zipf",
		Next: func() Request {
			t := vs[int(z.Uint64())]
			s := vs[rng.Intn(len(vs))]
			for s == t {
				s = vs[rng.Intn(len(vs))]
			}
			return Request{S: s, T: t}
		},
	}
}

// AllPairs cycles deterministically through every ordered (s, t) pair in
// label order — the exhaustive coverage workload (n·(n−1) distinct
// requests per cycle).
func AllPairs(st bigraph.Store) Workload {
	vs := StoreVertices(st)
	i, j := 0, 1
	return Workload{
		Name: "allpairs",
		Next: func() Request {
			if i == j {
				j++
			}
			if j >= len(vs) {
				i, j = i+1, 0
				if i >= len(vs) {
					i, j = 0, 1
				}
			}
			req := Request{S: vs[i], T: vs[j]}
			j++
			return req
		},
	}
}

// PairCount returns the number of requests in one AllPairs cycle.
func PairCount(st bigraph.Store) int { return st.N() * (st.N() - 1) }

// Adversarial replays the paper's worst-case constructions: the
// Theorem 4 dilation path (adversary.DilationPath), whose (s, t) pair
// forces route length 2n−3k−1 out of every successful k-local algorithm.
// The workload alternates the extremal pair with its reverse so caches
// see both directions. It returns the instance graph, which the caller
// must route on (the workload's pairs are meaningless elsewhere).
func Adversarial(n, k int) (*graph.Graph, Workload, error) {
	inst, err := adversary.DilationPath(n, k)
	if err != nil {
		return nil, Workload{}, fmt.Errorf("engine: adversarial workload: %w", err)
	}
	return inst.G, adversarialPairs(inst), nil
}

// adversarialPairs builds the alternating forward/reverse workload over
// one extremal instance.
func adversarialPairs(inst gen.Instance) Workload {
	flip := false
	return Workload{
		Name: "adversarial",
		Next: func() Request {
			flip = !flip
			if flip {
				return Request{S: inst.S, T: inst.T}
			}
			return Request{S: inst.T, T: inst.S}
		},
	}
}

// NewWorkload builds a named workload over st: "uniform", "zipf",
// "allpairs" or "hotspot". ("adversarial" carries its own graph; use
// Adversarial.)
func NewWorkload(kind string, rng *rand.Rand, st bigraph.Store) (Workload, error) {
	switch kind {
	case "uniform":
		return Uniform(rng, st), nil
	case "zipf":
		return Zipf(rng, st, 0), nil
	case "allpairs":
		return AllPairs(st), nil
	case "hotspot":
		return Hotspot(rng, st, 0), nil
	default:
		return Workload{}, fmt.Errorf("engine: unknown workload %q (uniform|zipf|allpairs|hotspot|adversarial)", kind)
	}
}

// Take materializes the next n requests of w — handy for DoBatch,
// RouteAll and deterministic tests.
func Take(w Workload, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = w.Next()
	}
	return out
}
