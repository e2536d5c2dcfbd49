// Command klocald is the standing routing daemon: it loads a topology,
// binds one traffic engine per requested algorithm, and serves routing
// queries over HTTP with live metrics, health endpoints, pprof, and
// zero-downtime graph hot-swap.
//
// Quickstart:
//
//	klocald -addr :7412 -algo alg2,alg3 -graph random -size 64 -seed 7
//	curl -s localhost:7412/route -d '{"s":0,"t":40,"trace":true}'
//	curl -s localhost:7412/metrics
//	curl -s -X PUT localhost:7412/graph -d '{"kind":"cycle","size":96}'
//
// SIGTERM/SIGINT stop intake, drain in-flight requests, and print one
// final cumulative report per algorithm.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"klocal/internal/graph"
	"klocal/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7412", "listen address")
		algos      = flag.String("algo", "alg2", "comma-separated algorithms to deploy (alg1|alg1b|alg2|alg3); first is the default")
		k          = flag.Int("k", 0, "locality parameter (0 = each algorithm's own threshold)")
		kind       = flag.String("graph", "lollipop", "graph generator kind (lollipop|cycle|path|grid|spider|wheel|barbell|complete|random|tree)")
		size       = flag.Int("size", 48, "graph size for generated topologies")
		seed       = flag.Int64("seed", 1, "generator seed")
		p          = flag.Float64("p", 0.1, "extra-edge probability for -graph random")
		graphFile  = flag.String("graph-file", "", "graph file (overrides the generator flags): .json GraphSpec, or a topology to serve store-backed — binary .csr (mmap'd) or edge list .txt/.txt.gz")
		workers    = flag.Int("workers", 0, "engine lanes per algorithm: at most this many of its requests route at once (0 = GOMAXPROCS)")
		maxSteps   = flag.Int("max-steps", 0, "per-walk step budget (0 = simulator default)")
		admission  = flag.Duration("admission", 100*time.Millisecond, "max wait for a free lane before a request is rejected with 429 (0 = wait forever)")
		cacheCap   = flag.Int("cache-cap", 0, "preprocessed-view cache capacity per snapshot (0 = unbounded)")
		prewarm    = flag.Bool("prewarm", false, "precompute every vertex view at (re)deploy time")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown budget for the HTTP listener")
		smoke      = flag.Bool("smoke", false, "self-test: boot on a loopback port, exercise every endpoint, shut down")
		scaleSmoke = flag.Bool("scale-smoke", false, "self-test: generate a 10^5-node grid, serve its .csr store-backed, route 1000 Zipf pairs, shut down")

		// Cluster mode (-shard selects it): N members each own a vertex
		// range of the same GraphSpec, discover G_k(u) over HTTP, and
		// forward /route requests hop by hop.
		shard        = flag.String("shard", "", "cluster mode: own shard i/n of the graph's vertex space (e.g. 1/5)")
		join         = flag.String("join", "", "cluster mode: comma-separated seed member addresses")
		advertise    = flag.String("advertise", "", "cluster mode: address peers reach this member at (default -addr)")
		incarnation  = flag.Int64("incarnation", 0, "cluster mode: membership incarnation (0 = unix time; must grow across rejoins)")
		helloIvl     = flag.Duration("hello", 250*time.Millisecond, "cluster mode: HELLO heartbeat interval")
		deadAfter    = flag.Duration("dead-after", 0, "cluster mode: silence before a peer is declared dead (0 = 8 × hello)")
		peerDeadline = flag.Duration("peer-deadline", time.Second, "cluster mode: per-RPC deadline to a peer (one hop handoff attempt)")
		hopBudget    = flag.Int("hop-budget", 0, "cluster mode: walk hop budget (0 = 8n+16)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "cluster mode: end-to-end budget for one entry request")
		clusterSmoke = flag.Bool("cluster-smoke", false, "self-test: boot a 3-member loopback cluster, kill one, assert recovery")
		churnSmoke   = flag.Bool("churn-smoke", false, "self-test: PATCH topology deltas under live traffic, assert locality and mirror equivalence")
	)
	flag.Parse()

	spec := serve.GraphSpec{Kind: *kind, Size: *size, Seed: *seed, P: *p}
	if *graphFile != "" {
		switch {
		case strings.HasSuffix(*graphFile, ".csr"),
			strings.HasSuffix(*graphFile, ".txt"),
			strings.HasSuffix(*graphFile, ".txt.gz"):
			// A topology file: serve it store-backed (mmap'd for .csr).
			spec = serve.GraphSpec{Kind: "file", Path: *graphFile}
		default:
			data, err := os.ReadFile(*graphFile)
			if err != nil {
				fatal(err)
			}
			spec = serve.GraphSpec{}
			if err := json.Unmarshal(data, &spec); err != nil {
				fatal(fmt.Errorf("parse %s: %w", *graphFile, err))
			}
		}
	}
	cfg := serve.Config{
		Graph:           spec,
		Algorithms:      splitCSV(*algos),
		K:               *k,
		Workers:         *workers,
		MaxSteps:        *maxSteps,
		AdmissionBudget: *admission,
		CacheCapacity:   *cacheCap,
		Prewarm:         *prewarm,
	}

	if *smoke {
		if err := runSmoke(cfg, *drain); err != nil {
			fatal(fmt.Errorf("smoke: %w", err))
		}
		fmt.Println("smoke: ok")
		return
	}
	if *scaleSmoke {
		if err := runScaleSmoke(*drain); err != nil {
			fatal(fmt.Errorf("scale-smoke: %w", err))
		}
		fmt.Println("scale-smoke: ok")
		return
	}
	if *clusterSmoke {
		if err := runClusterSmoke(); err != nil {
			fatal(err)
		}
		fmt.Println("cluster-smoke: ok")
		return
	}
	if *churnSmoke {
		if err := runChurnSmoke(*drain); err != nil {
			fatal(fmt.Errorf("churn-smoke: %w", err))
		}
		fmt.Println("churn-smoke: ok")
		return
	}
	if *shard != "" {
		err := runCluster(clusterOptions{
			addr:        *addr,
			advertise:   *advertise,
			shard:       *shard,
			join:        splitCSV(*join),
			algo:        splitCSV(*algos)[0],
			k:           *k,
			spec:        spec,
			incarnation: *incarnation,
			hello:       *helloIvl,
			deadAfter:   *deadAfter,
			peerDL:      *peerDeadline,
			hopBudget:   *hopBudget,
			reqTimeout:  *reqTimeout,
			drain:       *drain,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(os.Stderr, "klocald: listening on %s (%s, algos %s)\n",
		ln.Addr(), cfg.Graph, *algos)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	//klocal:allow exits when Serve returns on shutdown; errc is buffered so the send never blocks
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "klocald: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "klocald: listener shutdown: %v\n", err)
	}
	s.Drain()
	for _, rep := range s.FinalReports() {
		rep.WriteText(os.Stderr)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "klocald: %v\n", err)
	os.Exit(1)
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runSmoke boots the daemon on a loopback port and exercises the full
// endpoint surface, including a graph hot-swap — the dependency-free
// `make serve-smoke` body.
func runSmoke(cfg serve.Config, drain time.Duration) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	//klocal:allow smoke server; the run closes the listener on return, unblocking Serve
	go func() { errc <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: daemon on %s\n", base)

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
		}
		return string(body), nil
	}
	do := func(method, path string, payload, into any) error {
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, raw)
		}
		return json.Unmarshal(raw, into)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		if _, err := get(path); err != nil {
			return err
		}
	}
	var gr serve.GraphReply
	if err := do("GET", "/graph", nil, &gr); err != nil {
		return err
	}
	last := graph.Vertex(gr.N - 1)
	var rr serve.RouteReply
	if err := do("POST", "/route",
		serve.RouteRequest{S: 0, T: last, Trace: true}, &rr); err != nil {
		return err
	}
	if !rr.Delivered {
		return fmt.Errorf("route 0 -> %d not delivered: %s", last, rr.Outcome)
	}
	fmt.Printf("smoke: routed 0 -> %d in %d hops (dist %d, rev %d)\n",
		last, rr.Hops, rr.Dist, rr.Rev)
	var br serve.BatchReply
	pairs := [][2]graph.Vertex{{0, 1}, {1, last}, {last, 0}}
	if err := do("POST", "/batch", serve.BatchRequest{Pairs: pairs}, &br); err != nil {
		return err
	}
	for i, res := range br.Results {
		if !res.Delivered {
			return fmt.Errorf("batch pair %d not delivered: %s", i, res.Outcome)
		}
	}
	var swapped serve.GraphReply
	if err := do("PUT", "/graph",
		serve.GraphSpec{Kind: "cycle", Size: 32}, &swapped); err != nil {
		return err
	}
	if swapped.Rev <= gr.Rev {
		return fmt.Errorf("swap did not advance the revision: %d -> %d", gr.Rev, swapped.Rev)
	}
	if err := do("POST", "/route", serve.RouteRequest{S: 0, T: 16}, &rr); err != nil {
		return err
	}
	if rr.Rev != swapped.Rev {
		return fmt.Errorf("post-swap route served by rev %d, want %d", rr.Rev, swapped.Rev)
	}
	fmt.Printf("smoke: hot-swapped to %s (rev %d) and routed on it\n", swapped.Spec, swapped.Rev)
	text, err := get("/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(text, "requests") {
		return fmt.Errorf("metrics text missing request counters:\n%s", text)
	}
	if _, err := get("/metrics?format=json"); err != nil {
		return err
	}
	if _, err := get("/debug/pprof/cmdline"); err != nil {
		return err
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.Drain()
	for _, rep := range s.FinalReports() {
		rep.WriteText(os.Stdout)
	}
	return nil
}
