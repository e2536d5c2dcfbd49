package route

import (
	"math/rand"
	"sync"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/sim"
)

// The race-safety audit for the traffic engine: every algorithm's bound
// routing function is shared by many concurrent workers routing different
// (s, t) pairs through one closure — and, for every algorithm but the
// oracle, one shared view cache. Run with -race (see the Makefile's race
// target).

func raceAlgorithms() []Algorithm {
	return []Algorithm{
		Algorithm1(),
		Algorithm1B(),
		Algorithm2(),
		Algorithm3(),
		TreeRightHand(),
		ShortestPathOracle(),
		RandomWalk(42),
	}
}

func TestConcurrentRoutingSharedClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.RandomConnected(rng, 20, 0.15)
	vs := g.Vertices()
	for _, alg := range raceAlgorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			k := alg.MinK(g.N())
			if k == 0 {
				k = 5
			}
			f := alg.Bind(g, k) // one closure shared by all workers
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 30; i++ {
						s := vs[r.Intn(len(vs))]
						dst := vs[r.Intn(len(vs))]
						if s == dst {
							continue
						}
						res := sim.Run(g, sim.Func(f), s, dst, sim.Options{
							DetectLoops:      !alg.Randomized,
							PredecessorAware: alg.PredecessorAware,
						})
						if alg.MinK(g.N()) > 0 && res.Outcome != sim.Delivered {
							t.Errorf("%s above threshold: %d->%d %v (%v)", alg.Name, s, dst, res.Outcome, res.Err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestConcurrentRoutingSharedPreprocessor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.RandomConnected(rng, 18, 0.1)
	vs := g.Vertices()
	// The right-hand rule binds at its MinK, 0, so it also shares the
	// second, k = 1 cache its ports come from.
	for _, alg := range []Algorithm{Algorithm1(), Algorithm1B(), Algorithm2(), Algorithm3(), TreeRightHand()} {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			k := alg.MinK(g.N())
			// One externally owned cache shared across workers, bounded
			// below the vertex count so eviction races with reads.
			p := prep.NewPreprocessor(g, k, alg.Policy, prep.CacheOptions{Capacity: g.N() / 2})
			f := alg.Over(p)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < 20; i++ {
						s := vs[r.Intn(len(vs))]
						dst := vs[r.Intn(len(vs))]
						if s == dst {
							continue
						}
						res := sim.Run(g, sim.Func(f), s, dst, sim.Options{
							DetectLoops:      true,
							PredecessorAware: alg.PredecessorAware,
						})
						if k > 0 && res.Outcome != sim.Delivered {
							t.Errorf("%s: %d->%d %v (%v)", alg.Name, s, dst, res.Outcome, res.Err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if st := p.Stats(); st.Hits+st.Misses == 0 {
				t.Error("shared preprocessor saw no traffic")
			}
		})
	}
}

// Views handed out by a shared preprocessor are read concurrently by all
// workers; this exercises the read-only accessor surface under -race.
func TestConcurrentViewReads(t *testing.T) {
	g := gen.Lollipop(10, 5)
	p := prep.NewPreprocessor(g, 4, prep.PolicyMinRank, prep.CacheOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range g.Vertices() {
				v := p.At(u)
				_ = v.ActiveDegree()
				h := v.RoutingHalf()
				for _, x := range g.Vertices() {
					_ = v.C.NextHopFromCenter(x)
					if li, ok := h.Routing.Index(x); ok && x != u {
						_ = h.Comps[h.CompIdxOf(li)].Has(li)
					}
				}
				for _, e := range h.Dormant {
					_ = v.IsDormant(e)
				}
				raw := v.C.Raw
				for li := range raw.Verts {
					_ = raw.Row(int32(li))
				}
				_ = v.C.NextHopFromCenter(graph.NoVertex)
			}
		}()
	}
	wg.Wait()
}
