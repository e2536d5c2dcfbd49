// Package verify is the bulk validation harness behind cmd/verify: it
// checks an algorithm's delivery guarantee over exhaustive or randomized
// graph populations, fanning the work out over parallel workers. The
// paper's positive theorems are ∀-statements over graphs; this package
// is how a user re-establishes them at whatever scale they can afford.
package verify

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// Config selects what to verify.
type Config struct {
	// Algorithm under test.
	Algorithm route.Algorithm
	// K is the locality parameter; 0 means the algorithm's own threshold
	// T(n) per graph.
	K int
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxFailures stops the run early once that many failures are
	// recorded (0 = collect all).
	MaxFailures int
	// RequireShortest additionally demands route length == distance
	// (Algorithm 3 and table schemes).
	RequireShortest bool
}

// Failure is one defeated instance.
type Failure struct {
	G       *graph.Graph
	S, T    graph.Vertex
	Outcome sim.Outcome
	Err     error
}

// Report aggregates a verification run.
type Report struct {
	Graphs        int
	Pairs         int
	Delivered     int
	WorstDilation float64
	Failures      []Failure
}

// OK reports whether every routed pair was delivered (and shortest, if
// required).
func (r *Report) OK() bool { return len(r.Failures) == 0 && r.Delivered == r.Pairs }

// String summarizes the report.
func (r *Report) String() string {
	return fmt.Sprintf("graphs=%d pairs=%d delivered=%d worstDilation=%.3f failures=%d",
		r.Graphs, r.Pairs, r.Delivered, r.WorstDilation, len(r.Failures))
}

// checkGraph routes every ordered pair of g and merges into the report
// under mu.
func checkGraph(cfg Config, g *graph.Graph, rep *Report, mu *sync.Mutex) {
	k := cfg.K
	if k == 0 {
		k = cfg.Algorithm.MinK(g.N())
		if k == 0 {
			k = 1
		}
	}
	w := sim.Bind(cfg.Algorithm, g, k)
	local := Report{Graphs: 1}
	for _, s := range g.Vertices() {
		for _, t := range g.Vertices() {
			if s == t {
				continue
			}
			local.Pairs++
			res := w.Run(s, t)
			bad := res.Outcome != sim.Delivered ||
				(cfg.RequireShortest && res.Len() != res.Dist)
			if bad {
				local.Failures = append(local.Failures, Failure{
					G: g, S: s, T: t, Outcome: res.Outcome, Err: res.Err,
				})
				continue
			}
			local.Delivered++
			if d := res.Dilation(); d > local.WorstDilation {
				local.WorstDilation = d
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	rep.Graphs += local.Graphs
	rep.Pairs += local.Pairs
	rep.Delivered += local.Delivered
	if local.WorstDilation > rep.WorstDilation {
		rep.WorstDilation = local.WorstDilation
	}
	rep.Failures = append(rep.Failures, local.Failures...)
}

// overBudget reports whether the failure budget is exhausted.
func overBudget(cfg Config, rep *Report, mu *sync.Mutex) bool {
	if cfg.MaxFailures == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	return len(rep.Failures) >= cfg.MaxFailures
}

// runPool drains the graph channel with cfg.Workers workers.
func runPool(cfg Config, graphs <-chan *graph.Graph) *Report {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &Report{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range graphs {
				if overBudget(cfg, rep, &mu) {
					continue // drain without working
				}
				checkGraph(cfg, g, rep, &mu)
			}
		}()
	}
	wg.Wait()
	return rep
}

// Exhaustive verifies the algorithm over every connected labelled graph
// on n vertices (n ≤ 8), all ordered pairs each.
func Exhaustive(cfg Config, n int) (*Report, error) {
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("verify: exhaustive mode supports 1 <= n <= 8, got %d", n)
	}
	graphs := make(chan *graph.Graph, 64)
	//klocal:allow generator is drained to exhaustion by runPool, so the final send always unblocks
	go func() {
		defer close(graphs)
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			graphs <- g
			return true
		})
	}()
	return runPool(cfg, graphs), nil
}

// RandomSample verifies the algorithm over `count` random connected
// graphs with adversarially permuted labels, sizes drawn from
// [minN, maxN].
func RandomSample(cfg Config, seed int64, count, minN, maxN int) (*Report, error) {
	if minN < 2 || maxN < minN {
		return nil, fmt.Errorf("verify: need 2 <= minN <= maxN")
	}
	rng := rand.New(rand.NewSource(seed))
	graphs := make(chan *graph.Graph, 16)
	//klocal:allow generator is drained to exhaustion by runPool, so the final send always unblocks
	go func() {
		defer close(graphs)
		for i := 0; i < count; i++ {
			n := minN + rng.Intn(maxN-minN+1)
			g := gen.RandomConnected(rng, n, rng.Float64()*0.25)
			graphs <- g.PermuteLabels(gen.RandomLabelPermutation(rng, g))
		}
	}()
	return runPool(cfg, graphs), nil
}

// CheckWalk validates one delivered walk against the delivery
// invariants the bulk verifier establishes in aggregate — the per-route
// form the serving layer's tests lean on. It checks that the walk is
// non-empty, starts at s, ends at t, takes only edges of g, and (when
// maxDilation > 0) stays within maxDilation × dist(s, t). A walk routed
// against a different topology (e.g. a torn snapshot during a graph
// swap) fails the edge check with overwhelming probability.
func CheckWalk(g *graph.Graph, s, t graph.Vertex, walk []graph.Vertex, maxDilation float64) error {
	if len(walk) == 0 {
		return fmt.Errorf("verify: empty walk for %d -> %d", s, t)
	}
	if walk[0] != s {
		return fmt.Errorf("verify: walk starts at %d, want origin %d", walk[0], s)
	}
	if last := walk[len(walk)-1]; last != t {
		return fmt.Errorf("verify: walk ends at %d, want destination %d", last, t)
	}
	for i := 1; i < len(walk); i++ {
		if !g.HasEdge(walk[i-1], walk[i]) {
			return fmt.Errorf("verify: hop %d uses non-edge {%d, %d}", i, walk[i-1], walk[i])
		}
	}
	if maxDilation > 0 && s != t {
		return CheckDilation(walk, g, s, t, maxDilation)
	}
	return nil
}

// DilationViolation is the typed error CheckDilation reports when a
// delivered walk exceeds a dilation bound: the walk took Hops edges
// where the shortest path has Dist, blowing the Bound × Dist budget.
type DilationViolation struct {
	S, T       graph.Vertex
	Hops, Dist int
	Bound      float64
}

// Dilation is the measured ratio Hops/Dist.
func (e *DilationViolation) Error() string {
	return fmt.Sprintf("verify: walk %d -> %d of %d hops exceeds dilation %.3g × dist %d (measured %.3f)",
		e.S, e.T, e.Hops, e.Bound, e.Dist, e.Dilation())
}

// Dilation returns the measured ratio Hops/Dist.
func (e *DilationViolation) Dilation() float64 {
	if e.Dist == 0 {
		return 0
	}
	return float64(e.Hops) / float64(e.Dist)
}

// CheckDilation compares a delivered walk against a dilation bound by
// recomputing the shortest-path distance in g: it fails with a
// *DilationViolation when len(walk)−1 > bound × dist(s, t). The walk
// must start at s and end at t (s ≠ t); the endpoints must be connected
// in g. It replaces ad-hoc float ratio comparisons wherever a table,
// figure or fuzz property enforces one of the paper's Table 2 bounds —
// the typed error carries the exact hop and distance counts a
// counterexample report needs.
func CheckDilation(walk []graph.Vertex, g *graph.Graph, s, t graph.Vertex, bound float64) error {
	if len(walk) == 0 || walk[0] != s || walk[len(walk)-1] != t {
		return fmt.Errorf("verify: dilation check needs a walk from %d to %d", s, t)
	}
	if s == t {
		return nil
	}
	dist := g.Dist(s, t)
	if dist <= 0 {
		return fmt.Errorf("verify: no path %d -> %d in the claimed topology", s, t)
	}
	if hops := len(walk) - 1; float64(hops) > bound*float64(dist)+dilationEps {
		return &DilationViolation{S: s, T: t, Hops: hops, Dist: dist, Bound: bound}
	}
	return nil
}

// dilationEps absorbs float rounding when bound × dist is compared
// against an integer hop count.
const dilationEps = 1e-9
