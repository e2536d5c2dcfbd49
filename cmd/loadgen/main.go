// Command loadgen stress-tests the routing algorithms under realistic
// traffic: it generates a workload of (s, t) requests, routes them
// concurrently on the traffic engine's lanes (-workers of them, one
// routing goroutine each), and prints a metrics report (delivery rate,
// throughput, latency/hop/stretch histograms, view-cache activity).
//
// Usage:
//
//	loadgen [-algo alg2] [-workload zipf] [-n 100000] [-workers 8]
//	        [-duration 0] [-report text]
//	        [-graph lollipop] [-size 48] [-k 0] [-seed 1] [-p 0.1]
//	        [-zipf-skew 1.2] [-max-steps 0] [-cache-cap 0] [-prewarm]
//
// Workloads: uniform (random pairs), zipf (skewed destinations),
// hotspot (destinations skewed by approximate betweenness — traffic
// concentrating on the "core routers"), allpairs (exhaustive
// coverage), adversarial (the Theorem 4 dilation path from
// internal/adversary — overrides -graph/-size with the extremal
// instance).
//
// -churn rate sustains topology deltas (edge flaps, vertex arrivals
// and departures) at the given frequency while traffic routes: each
// delta is applied copy-on-write, the snapshot re-derives only the
// views within distance k of the touched endpoints, and the engine
// hot-swaps generations without draining. The run then reports
// per-delta invalidation counts and swap latencies alongside the
// traffic metrics. Requests that race a departure may legitimately
// fail, so delivery below 1.0 under churn is not by itself a bug.
//
// -n bounds the request count, -duration the wall time; with both set
// the run stops at whichever comes first. -k 0 uses the algorithm's own
// threshold T(n). -report json emits the raw merged report.
//
// -graph also accepts a *.json file holding a serve.GraphSpec — or a
// full klocalcheck case, whose algorithm and locality then become the
// defaults for -algo/-k when those are not given explicitly — so
// minimized counterexamples can be stress-tested under load:
//
//	loadgen -graph finding.json -workload allpairs -n 10000
//
// -graph-file loads an on-disk topology instead — a binary .csr file
// (mmap'd; the million-node path, see DESIGN.md §12) or an edge list
// (.txt, .txt.gz). Store-backed runs route as usual but report no
// stretch/dist metrics (exact distances need the full topology), and
// require an explicit small -k: the thresholds are Θ(n). Below
// threshold, pairs whose destination never enters the k-view wander
// until the step budget — cap it with -max-steps (≈2k) or undeliverable
// pairs dominate the run:
//
//	csrgen -kind grid -rows 1000 -cols 1000 -out grid.csr
//	loadgen -graph-file grid.csr -k 8 -max-steps 16 -n 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"klocal"
	"klocal/internal/fuzz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algName   = flag.String("algo", "alg2", "algorithm: alg1|alg1b|alg2|alg3|righthand|oracle|randomwalk")
		workload  = flag.String("workload", "zipf", "workload: uniform|zipf|hotspot|allpairs|adversarial")
		n         = flag.Int("n", 100000, "number of requests (0 = unbounded, needs -duration)")
		workers   = flag.Int("workers", 0, "engine lanes, each routing on its own goroutine (0 = GOMAXPROCS)")
		duration  = flag.Duration("duration", 0, "wall-clock bound for the run (0 = none)")
		report    = flag.String("report", "text", "report format: text|json")
		graphKind = flag.String("graph", "lollipop", "topology: lollipop|cycle|path|grid|spider|wheel|barbell|complete|random|tree, or a GraphSpec/case *.json file")
		graphFile = flag.String("graph-file", "", "on-disk topology, routed store-backed: binary .csr (mmap'd) or edge list .txt/.txt.gz (overrides -graph)")
		size      = flag.Int("size", 48, "number of nodes")
		k         = flag.Int("k", 0, "locality parameter (0 = algorithm threshold)")
		seed      = flag.Int64("seed", 1, "seed for graph generation and the workload")
		p         = flag.Float64("p", 0.1, "extra-edge probability for -graph random")
		zipfSkew  = flag.Float64("zipf-skew", klocal.ZipfSkew, "Zipf exponent for -workload zipf")
		maxSteps  = flag.Int("max-steps", 0, "per-walk step budget (0 = simulator default, 8n+16; set ~2k when routing below threshold at scale)")
		cacheCap  = flag.Int("cache-cap", 0, "max cached preprocessed views (0 = unbounded)")
		prewarm   = flag.Bool("prewarm", false, "precompute every vertex's view before routing")
		churnRate = flag.Float64("churn", 0, "sustained topology deltas per second during the run (0 = off; needs an in-memory graph)")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var fileGraph *klocal.Graph
	if strings.HasSuffix(*graphKind, ".json") {
		c, err := fuzz.ReadCase(*graphKind)
		if err != nil {
			return err
		}
		if fileGraph, err = c.GraphSpec.Build(); err != nil {
			return err
		}
		// The case's routing context fills any flag left at its default.
		if c.Algo != "" && !explicit["algo"] {
			*algName = c.Algo
		}
		if c.K > 0 && !explicit["k"] {
			*k = c.K
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
			return fmt.Errorf("unknown -algo %q", *algName)
		}
		alg = mk()
	}

	rng := klocal.NewRand(*seed)
	var st klocal.GraphStore
	var g *klocal.Graph
	var w klocal.TrafficWorkload
	if *graphFile != "" {
		if *workload == "adversarial" {
			return fmt.Errorf("-workload adversarial builds its own extremal instance; it cannot run on -graph-file")
		}
		c, err := klocal.LoadGraphFile(*graphFile)
		if err != nil {
			return err
		}
		defer c.Close()
		st = c
	} else if *workload == "adversarial" {
		kk := *k
		if kk == 0 {
			kk = alg.MinK(*size)
			if kk == 0 {
				kk = (*size + 3) / 4
			}
		}
		var err error
		g, w, err = klocal.AdversarialWorkload(*size, kk)
		if err != nil {
			return err
		}
		*k = kk
	} else if fileGraph != nil {
		g = fileGraph
	} else {
		switch *graphKind {
		case "lollipop":
			g = klocal.Lollipop(*size-*size/3, *size/3)
		case "cycle":
			g = klocal.Cycle(*size)
		case "path":
			g = klocal.Path(*size)
		case "grid":
			side := 1
			for side*side < *size {
				side++
			}
			g = klocal.Grid(side, side)
		case "spider":
			g = klocal.Spider(4, (*size-1)/4)
		case "wheel":
			g = klocal.Wheel(*size)
		case "barbell":
			c := (*size - 2) / 2
			g = klocal.Barbell(c, *size-2*c)
		case "complete":
			g = klocal.Complete(*size)
		case "random":
			g = klocal.RandomConnected(rng, *size, *p)
		case "tree":
			g = klocal.RandomTree(rng, *size)
		default:
			return fmt.Errorf("unknown -graph %q", *graphKind)
		}
	}

	if st == nil {
		st = g // every generator branch materialized a graph
	}
	if *workload != "adversarial" { // the adversarial instance brought its own pairs
		var err error
		if *workload == "zipf" {
			w = klocal.ZipfWorkload(rng, st, *zipfSkew)
		} else if w, err = klocal.NewTrafficWorkload(*workload, rng, st); err != nil {
			return err
		}
	}

	opts := klocal.SnapshotOptions{Cache: klocal.CacheOptions{Capacity: *cacheCap}}
	if *prewarm {
		opts.Prewarm = -1
	}
	warmStart := time.Now()
	snap, err := klocal.NewSnapshotStore(st, *k, alg, opts)
	if err != nil {
		return err
	}
	if *prewarm {
		fmt.Fprintf(os.Stderr, "prewarmed %d views in %v\n",
			snap.CacheStats().Size, time.Since(warmStart).Round(time.Millisecond))
	}

	if *report == "text" {
		topo := *graphKind
		if *graphFile != "" {
			topo = *graphFile
		}
		fmt.Printf("loadgen: %s on %s n=%d m=%d, k=%d (threshold %d), workload %s, %d requests",
			alg.Name, topo, st.N(), st.M(), snap.K(), alg.MinK(st.N()), w.Name, *n)
		if *duration > 0 {
			fmt.Printf(", duration %v", *duration)
		}
		fmt.Println()
	}

	eng := klocal.NewEngine(snap, klocal.EngineConfig{Workers: *workers, MaxSteps: *maxSteps})

	// The churner hot-swaps snapshots under the running traffic: apply
	// one delta copy-on-write, derive the next snapshot (only views in
	// the k-radius dirty set recompute), publish it atomically. Its own
	// metrics shard records the per-delta cost.
	var churnSchema klocal.MetricsSchema
	deltas := churnSchema.Counter("deltas")
	invalidated := churnSchema.Histogram("invalidated_views")
	swapNS := churnSchema.Histogram("swap_ns")
	var churnMet *klocal.MetricsShard
	var churnStop, churnDone chan struct{}
	if *churnRate > 0 {
		if g == nil {
			return fmt.Errorf("-churn needs an in-memory graph, not -graph-file")
		}
		if *workload == "adversarial" {
			return fmt.Errorf("-churn would destroy the adversarial instance's extremal structure")
		}
		churnMet = klocal.NewMetricsShard(&churnSchema)
		churnStop = make(chan struct{})
		churnDone = make(chan struct{})
		go func(cur *klocal.Graph, cs *klocal.Snapshot) {
			defer close(churnDone)
			sched := klocal.NewChurnScheduler(cur, *seed+1)
			tick := time.NewTicker(time.Duration(float64(time.Second) / *churnRate))
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				d := sched.Next()
				t0 := time.Now()
				post, dirty, err := klocal.ApplyDelta(cur, d, cs.K())
				if err != nil {
					// The scheduler only emits deltas valid against its
					// own mirror, which tracks cur exactly.
					fmt.Fprintf(os.Stderr, "loadgen: churn: %v\n", err)
					return
				}
				next, err := cs.Incremental(post, dirty)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: churn: %v\n", err)
					return
				}
				eng.SwapSnapshot(next)
				churnMet.Add(deltas, 1)
				churnMet.Observe(invalidated, int64(len(dirty)))
				churnMet.Observe(swapNS, time.Since(t0).Nanoseconds())
				cur, cs = post, next
			}
		}(g, snap)
	}

	start := time.Now()
	runErr := eng.RunWorkload(w, *n, *duration)
	if churnStop != nil {
		close(churnStop)
		<-churnDone
	}
	if runErr != nil {
		return runErr
	}
	elapsed := time.Since(start)

	rep := eng.Report()
	switch *report {
	case "json":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
		if churnMet != nil {
			return churnMet.Snapshot().WriteJSON(os.Stdout)
		}
		return nil
	case "text":
		rep.WriteText(os.Stdout)
		if churnMet != nil {
			fmt.Printf("churn: %d deltas applied, %.1f views invalidated per delta (p99 %v swap)\n",
				churnMet.Counter(deltas),
				churnMet.Histogram(invalidated).Mean(),
				time.Duration(churnMet.Histogram(swapNS).Quantile(0.99)).Round(time.Microsecond))
		}
		fmt.Printf("elapsed                  %v\n", elapsed.Round(time.Millisecond))
		if rep.Gauge("delivery_rate") == 1.0 {
			fmt.Println("delivery: ALL messages delivered")
		} else {
			fmt.Printf("delivery: INCOMPLETE (%0.4f)\n", rep.Gauge("delivery_rate"))
		}
		return nil
	default:
		return fmt.Errorf("unknown -report %q (text|json)", *report)
	}
}
