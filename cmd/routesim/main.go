// Command routesim routes a single message on a generated topology and
// prints the hop-by-hop trace.
//
// Usage:
//
//	routesim [-graph random] [-n 24] [-k 0] [-alg alg1] [-s 0] [-t -1]
//	         [-seed 1] [-p 0.1] [-distributed]
//	         [-loss 0.2] [-crash 3,7] [-faultseed 1] [-degrade]
//	         [-pairs 1] [-workers 0]
//
// With -k 0 the algorithm's own threshold T(n) is used; -t -1 picks the
// vertex farthest from s. -distributed routes through the concurrent
// message-passing simulator (with k-hop discovery) instead of the
// single-threaded walk.
//
// -graph also accepts a *.json file holding a serve.GraphSpec — or a
// full klocalcheck case, whose algorithm, locality and endpoints then
// become the defaults for any of -alg/-k/-s/-t not given explicitly —
// so minimized counterexamples replay directly:
//
//	routesim -graph finding.json
//
// -graph-file loads an on-disk topology — a binary .csr file or an edge
// list (.txt, .txt.gz) — and materializes it for tracing. routesim needs
// the full graph (hop annotations, exact distances, the distributed
// simulator), so this is for small and medium instances; route
// million-node files store-backed through loadgen or klocald instead.
//
// With -pairs > 1 routesim routes a batch of uniformly sampled (s, t)
// pairs instead of one: fault-free batches go through the traffic
// engine's worker pool (-workers goroutines, 0 = GOMAXPROCS) and print a
// metrics report plus the worst-stretch route's trace; with fault flags
// set, the batch is replayed through the faulty distributed simulator
// and reports delivery/retry statistics under the same fault plan
// (-s/-t are ignored in batch mode).
//
// The fault flags inject deterministic faults into the distributed
// simulator (and imply -distributed): -loss drops each transmission
// independently with the given probability, -crash takes a
// comma-separated list of vertices to crash before discovery, and
// -faultseed picks the injector's random stream. -degrade skips the
// single-message run and instead prints the loss × locality degradation
// sweep (delivery rate, discovery overhead, and stretch versus the
// fault-free baseline).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"klocal"
	"klocal/internal/fuzz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphKind   = flag.String("graph", "random", "topology: random|tree|path|cycle|grid|spider|lollipop|complete, or a GraphSpec/case *.json file")
		graphFile   = flag.String("graph-file", "", "on-disk topology to materialize and trace: binary .csr or edge list .txt/.txt.gz (overrides -graph)")
		n           = flag.Int("n", 24, "number of nodes")
		k           = flag.Int("k", 0, "locality parameter (0 = algorithm threshold)")
		algName     = flag.String("alg", "alg1", "algorithm: alg1|alg1b|alg2|alg3|righthand|oracle|randomwalk")
		sFlag       = flag.Int("s", 0, "origin vertex label")
		tFlag       = flag.Int("t", -1, "destination vertex label (-1 = farthest from s)")
		seed        = flag.Int64("seed", 1, "random seed")
		p           = flag.Float64("p", 0.1, "extra-edge probability for -graph random")
		distributed = flag.Bool("distributed", false, "route through the concurrent network simulator")
		loss        = flag.Float64("loss", 0, "per-transmission drop probability (implies -distributed)")
		crashList   = flag.String("crash", "", "comma-separated vertices to crash before discovery (implies -distributed)")
		faultSeed   = flag.Uint64("faultseed", 1, "seed for the deterministic fault injector")
		degrade     = flag.Bool("degrade", false, "print the loss × locality degradation sweep instead of routing")
		pairs       = flag.Int("pairs", 1, "route a batch of this many sampled (s, t) pairs instead of one")
		workers     = flag.Int("workers", 0, "engine workers for batch mode (0 = GOMAXPROCS)")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	rng := klocal.NewRand(*seed)
	var g *klocal.Graph
	if *graphFile != "" {
		c, err := klocal.LoadGraphFile(*graphFile)
		if err != nil {
			return err
		}
		g = c.ToGraph()
		c.Close()
		*graphKind = *graphFile // label reports with the file name
	} else if strings.HasSuffix(*graphKind, ".json") {
		c, err := fuzz.ReadCase(*graphKind)
		if err != nil {
			return err
		}
		g, err = c.GraphSpec.Build()
		if err != nil {
			return err
		}
		// The case's routing context fills any flag left at its default.
		if c.Algo != "" && !explicit["alg"] {
			*algName = c.Algo
		}
		if c.K > 0 && !explicit["k"] {
			*k = c.K
		}
		if c.S != c.T { // bare GraphSpecs carry no endpoints
			if !explicit["s"] {
				*sFlag = int(c.S)
			}
			if !explicit["t"] {
				*tFlag = int(c.T)
			}
		}
	} else {
		switch *graphKind {
		case "random":
			g = klocal.RandomConnected(rng, *n, *p)
		case "tree":
			g = klocal.RandomTree(rng, *n)
		case "path":
			g = klocal.Path(*n)
		case "cycle":
			g = klocal.Cycle(*n)
		case "grid":
			side := 1
			for side*side < *n {
				side++
			}
			g = klocal.Grid(side, side)
		case "spider":
			g = klocal.Spider(4, (*n-1)/4)
		case "lollipop":
			g = klocal.Lollipop(*n-*n/3, *n/3)
		case "complete":
			g = klocal.Complete(*n)
		default:
			return fmt.Errorf("unknown -graph %q", *graphKind)
		}
	}

	var alg klocal.Algorithm
	switch *algName {
	case "alg1":
		alg = klocal.Algorithm1()
	case "alg1b":
		alg = klocal.Algorithm1B()
	case "alg2":
		alg = klocal.Algorithm2()
	case "alg3":
		alg = klocal.Algorithm3()
	case "righthand":
		alg = klocal.TreeRightHand()
	case "oracle":
		alg = klocal.ShortestPathOracle()
	case "randomwalk":
		alg = klocal.RandomWalk(*seed)
	default:
		// The fuzzer's registry covers the rest — notably broken2, so
		// klocalcheck findings replay without translation.
		mk, ok := fuzz.Algorithms()[*algName]
		if !ok {
			return fmt.Errorf("unknown -alg %q", *algName)
		}
		alg = mk()
	}

	kk := *k
	if kk == 0 {
		kk = alg.MinK(g.N())
		if kk == 0 {
			kk = 1
		}
	}

	if *degrade {
		res, err := klocal.Degrade(*seed, *n, alg, []float64{0, 0.05, 0.1, 0.2}, []int{kk}, 20)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return nil
	}

	var crashes []klocal.Crash
	for _, field := range strings.Split(*crashList, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.Atoi(field)
		if err != nil {
			return fmt.Errorf("bad -crash entry %q: %w", field, err)
		}
		crashes = append(crashes, klocal.Crash{Node: klocal.Vertex(v)})
	}
	faulty := *loss > 0 || len(crashes) > 0
	if faulty && !*distributed {
		fmt.Println("(fault flags imply -distributed)")
		*distributed = true
	}

	if *pairs > 1 {
		plan := klocal.FaultPlan{Seed: *faultSeed, Loss: *loss, Crashes: crashes}
		return runBatch(g, alg, kk, *graphKind, *pairs, *workers, rng, faulty, plan)
	}

	s := klocal.Vertex(*sFlag)
	if !g.HasVertex(s) {
		return fmt.Errorf("origin %d not in the graph", s)
	}
	crashed := make(map[klocal.Vertex]bool, len(crashes))
	for _, c := range crashes {
		crashed[c.Node] = true
	}
	if crashed[s] {
		return fmt.Errorf("origin %d is crashed by -crash", s)
	}
	t := klocal.Vertex(*tFlag)
	if *tFlag < 0 {
		best, bestD := s, -1
		for v, d := range g.BFS(s) {
			if crashed[v] {
				continue
			}
			if d > bestD || (d == bestD && v < best) {
				best, bestD = v, d
			}
		}
		t = best
	}
	if !g.HasVertex(t) {
		return fmt.Errorf("destination %d not in the graph", t)
	}

	fmt.Printf("graph: %s, n=%d m=%d; algorithm %s, k=%d (threshold %d)\n",
		*graphKind, g.N(), g.M(), alg.Name, kk, alg.MinK(g.N()))
	fmt.Printf("routing %d -> %d (dist %d)\n", s, t, g.Dist(s, t))

	if *distributed {
		plan := klocal.FaultPlan{Seed: *faultSeed, Loss: *loss, Crashes: crashes}
		nw := klocal.NewFaultyNetwork(g, kk, alg, plan)
		nw.Start()
		defer nw.Stop()
		if err := nw.Discover(); err != nil {
			return err
		}
		if faulty {
			st := nw.Stats()
			fmt.Printf("faults: loss=%.2f crashed=%v seed=%d; discovery %d rounds, %d control msgs (%d retransmissions, %d drops, %d deaths)\n",
				*loss, keys(crashed), *faultSeed, st.DiscoveryRounds, st.ControlMessages(), st.LSARetransmissions, st.Dropped, st.DeadDeclared)
		}
		res := nw.SendDetailed(s, t)
		if res.Err != nil {
			if len(res.Events) > 0 {
				fmt.Print(klocal.RenderRouteEvents(g, res.Route, t, res.Events))
			}
			return res.Err
		}
		fmt.Printf("delivered in %d hops (distributed, %d link retries): %s\n",
			len(res.Route)-1, res.Retries, trace(res.Route))
		if len(res.Events) > 0 {
			fmt.Print(klocal.RenderRouteEvents(g, res.Route, t, res.Events))
		}
		return nil
	}

	res := klocal.Route(alg, g, kk, s, t)
	fmt.Printf("outcome: %v, %d hops, dilation %.3f\n", res.Outcome, res.Len(), res.Dilation())
	if res.Err != nil {
		fmt.Printf("error: %v\n", res.Err)
	}
	fmt.Println("route:", trace(res.Route))
	fmt.Print(klocal.RenderRoute(g, res.Route, t))
	return nil
}

// runBatch routes a batch of sampled pairs: through the traffic engine
// when fault-free, or replayed through the faulty distributed simulator
// when fault flags are set.
func runBatch(g *klocal.Graph, alg klocal.Algorithm, k int, graphKind string, pairs, workers int, rng *rand.Rand, faulty bool, plan klocal.FaultPlan) error {
	fmt.Printf("batch: %s on %s n=%d m=%d, k=%d, %d uniform pairs\n",
		alg.Name, graphKind, g.N(), g.M(), k, pairs)
	reqs := klocal.TakeRequests(klocal.UniformWorkload(rng, g), pairs)

	if faulty {
		fmt.Printf("faults: loss=%.2f crashes=%d seed=%d (batch replayed through the distributed simulator)\n",
			plan.Loss, len(plan.Crashes), plan.Seed)
		nw := klocal.NewFaultyNetwork(g, k, alg, plan)
		nw.Start()
		defer nw.Stop()
		if err := nw.Discover(); err != nil {
			return err
		}
		delivered, failed, hops, retries := 0, 0, 0, 0
		worst := 0.0
		for _, req := range reqs {
			res := nw.SendDetailed(req.S, req.T)
			if res.Err != nil {
				failed++
				continue
			}
			delivered++
			h := len(res.Route) - 1
			hops += h
			retries += res.Retries
			if d := g.Dist(req.S, req.T); d > 0 {
				if stretch := float64(h) / float64(d); stretch > worst {
					worst = stretch
				}
			}
		}
		st := nw.Stats()
		fmt.Printf("delivered %d/%d (%.4f), failed %d\n",
			delivered, len(reqs), float64(delivered)/float64(len(reqs)), failed)
		if delivered > 0 {
			fmt.Printf("mean hops %.2f, worst stretch %.3f, %d link retries\n",
				float64(hops)/float64(delivered), worst, retries)
		}
		fmt.Printf("protocol: %d control msgs, %d retransmissions, %d drops\n",
			st.ControlMessages(), st.LSARetransmissions, st.Dropped)
		return nil
	}

	snap, err := klocal.NewSnapshotStore(g, k, alg, klocal.SnapshotOptions{})
	if err != nil {
		return err
	}
	resps, rep, err := klocal.RouteAll(snap, reqs, klocal.EngineConfig{Workers: workers})
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)

	// Reuse the single-message trace rendering on the worst-stretch
	// delivered route of the batch.
	worstIdx, worstStretch := -1, 0.0
	for i, r := range resps {
		if r.Result.Outcome != klocal.Delivered || r.Result.Dist == 0 {
			continue
		}
		if d := r.Result.Dilation(); worstIdx < 0 || d > worstStretch {
			worstIdx, worstStretch = i, d
		}
	}
	if worstIdx >= 0 {
		r := resps[worstIdx]
		fmt.Printf("\nworst-stretch route (%d -> %d, dist %d, stretch %.3f): %s\n",
			r.S, r.T, r.Result.Dist, worstStretch, trace(r.Result.Route))
		fmt.Print(klocal.RenderRoute(g, r.Result.Route, r.T))
	}
	return nil
}

func keys(set map[klocal.Vertex]bool) []klocal.Vertex {
	out := make([]klocal.Vertex, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func trace(route []klocal.Vertex) string {
	parts := make([]string, len(route))
	for i, v := range route {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, " -> ")
}
