// Ad hoc network scenario: every node of a simulated network discovers
// its k-neighbourhood with a TTL-scoped link-state flood, then many
// flows, each sent from its own goroutine, route concurrently with an
// origin-oblivious k-local algorithm — the setting the paper's
// introduction motivates.
//
//	go run ./examples/adhoc [-n 48] [-flows 200] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"klocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adhoc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n     = flag.Int("n", 48, "number of nodes")
		flows = flag.Int("flows", 200, "number of concurrent flows")
		seed  = flag.Int64("seed", 7, "random seed")
	)
	flag.Parse()

	rng := klocal.NewRand(*seed)
	g := klocal.RandomConnected(rng, *n, 0.05)
	alg := klocal.Algorithm2()
	k := alg.MinK(*n)
	fmt.Printf("ad hoc network: n=%d m=%d, %s at k=%d (threshold n/3)\n", g.N(), g.M(), alg.Name, k)

	nw := klocal.NewNetwork(g, k, alg)
	nw.Start()
	defer nw.Stop()
	if err := nw.Discover(); err != nil {
		return err
	}
	fmt.Println("k-hop neighbourhood discovery complete")

	type flowResult struct {
		s, t klocal.Vertex
		hops int
		err  error
	}
	results := make(chan flowResult, *flows)
	var wg sync.WaitGroup
	vs := g.Vertices()
	for i := 0; i < *flows; i++ {
		s := vs[rng.Intn(len(vs))]
		t := vs[rng.Intn(len(vs))]
		wg.Add(1)
		go func(s, t klocal.Vertex) {
			defer wg.Done()
			route, err := nw.Send(s, t)
			results <- flowResult{s: s, t: t, hops: len(route) - 1, err: err}
		}(s, t)
	}
	wg.Wait()
	close(results)

	var (
		delivered, totalHops int
		worst                float64
		worstFlow            flowResult
	)
	for r := range results {
		if r.err != nil {
			return fmt.Errorf("flow %d->%d: %w", r.s, r.t, r.err)
		}
		delivered++
		totalHops += r.hops
		if d := g.Dist(r.s, r.t); d > 0 {
			if dil := float64(r.hops) / float64(d); dil > worst {
				worst, worstFlow = dil, r
			}
		}
	}
	fmt.Printf("flows delivered: %d/%d, total %d hops\n", delivered, *flows, totalHops)
	fmt.Printf("worst dilation: %.3f (flow %d->%d, %d hops over dist %d) — Theorem 7 guarantees < 3\n",
		worst, worstFlow.s, worstFlow.t, worstFlow.hops, g.Dist(worstFlow.s, worstFlow.t))
	return nil
}
