// Command klbench is klocal's end-to-end benchmark. Each workload runs
// a closed loop of 2 clients against the routing daemon's own handler
// (serve.Server behind a loopback listener) or an in-process cluster,
// checks every reply, and reports what a client sees. A traced run
// (--trace 1) repeats the loop and then times each layer's public entry
// points on the same inputs, so the layers can be added up against the
// end-to-end latency.
//
// Run it from the root of a checkout through the wrapper, which builds
// it first:
//
//	bash klbench/run.sh --workload route-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The process exits
// non-zero when any reply fails its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config holds the sizes of one run. defaultConfig is what the
// benchmark measures; the test shrinks it to toy sizes.
type config struct {
	seed    int64
	window  time.Duration // the measured window (--seconds)
	out     string        // directory for generated graph files and span dumps
	clients int           // closed-loop clients, at most nproc

	// warmup is the unmeasured closed-loop time before the window;
	// fillWarmup is scale-cold's, long enough to fill its view cache so
	// the window sees the steady heap and hit ratio.
	warmup, fillWarmup time.Duration
	// setupReps set-ups per run, slowSetupReps for cluster-loop, whose
	// set-up takes seconds; setup_s is their median.
	setupReps, slowSetupReps int

	lollipopN int // route-warm and cluster-loop topology size
	gridN     int // churn-patch grid vertex count (a square)
	churnK    int
	scaleSide int // scale-cold grid side
	scaleK    int
	cacheCap  int // scale-cold view-cache capacity
	shards    int // cluster-loop members
	batch     int // pairs per /batch on scale-cold
	flapEvery int // every flapEvery-th op of client 0 is a PATCH
	chords    int // distinct chords the churn flaps cycle through
	pairs     int // pre-generated pairs per workload
	coldPairs int // scale-cold's: enough that no run reuses a pair

	sample     int // operations replayed per layer in the traced run
	maxViews   int // distinct views preprocessed per traced run
	deltaFlaps int // chord flaps replayed below the handler per traced run
}

func defaultConfig() config {
	return config{
		out:           ".bench_build",
		clients:       2,
		warmup:        2 * time.Second,
		fillWarmup:    10 * time.Second,
		setupReps:     5,
		slowSetupReps: 3,
		lollipopN:     512,
		gridN:         100 * 100,
		churnK:        3,
		scaleSide:     1000,
		scaleK:        3,
		cacheCap:      1 << 15,
		shards:        4,
		batch:         16,
		flapEvery:     32,
		chords:        8,
		pairs:         1 << 14,
		coldPairs:     1 << 18,
		sample:        1000,
		maxViews:      1024,
		deltaFlaps:    32,
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|")+", or all to run each in turn")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for generated graph files and span dumps")
	flag.Parse()

	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.out = *out
	if cfg.window <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "klbench: need --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames() // one after another, each with its own result line
	}
	correct := true
	for _, n := range names {
		res, err := run(n, cfg, *traced == 1, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "klbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "klbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// machine is the header every run prints: enough to read a number
// against the hardware and settings it was taken on.
func machine(name string, cfg config, traced bool) string {
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q clients=%d seed=%d workload=%s seconds=%g trace=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), cfg.clients, cfg.seed, name, cfg.window.Seconds(), traced)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run sets the workload up several times (setup_s is the median), warms
// it up, measures one window and, when traced, a traced window and the
// per-layer replays.
func run(name string, cfg config, traced bool, w io.Writer) (result, error) {
	if cfg.clients > runtime.NumCPU() {
		cfg.clients = runtime.NumCPU()
	}
	wl, err := newWorkload(name, &cfg)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, machine(name, cfg, traced))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, err
	}
	var tr *tracer
	reps, warmup := wl.plan()
	if traced {
		tr = newTracer()
		reps = 1
	}
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		inst, err = wl.setup(tr)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(w, "setup: %d runs, median %.4f s (each: %s)\n", len(setups), median(setups), fmtFloats(setups))

	lp := &loop{inst: inst, next: make([]int, cfg.clients)}
	lp.phase(warmup, nil)
	runtime.GC()
	rt0 := readRuntime()
	win := lp.phase(cfg.window, nil)
	rt1 := readRuntime()

	res := result{Metrics: map[string]metric{}}
	res.put("setup_s", median(setups), "s")
	res.put("throughput_mps", win.throughput(), "msgs/s")
	res.put("latency_p50_ms", ms(percentile(win.lat, 50)), "ms")
	res.put("latency_p99_ms", ms(percentile(win.lat, 99)), "ms")
	fmt.Fprintf(w, "window: %.3f s, %d ops (%d carrying messages), %d messages, %d failed\n",
		win.elapsed.Seconds(), win.attempted, len(win.lat), win.msgs, win.failed)
	if len(win.deltaLat) > 0 {
		fmt.Fprintf(w, "delta_p50_ms %.4f ms (%d PATCH /graph round trips)\n", ms(percentile(win.deltaLat, 50)), len(win.deltaLat))
	}
	deltaP50 := ms(percentile(win.deltaLat, 50))
	// heap_mb reads what the system retains, so the benchmark drops its
	// own latency samples first and forces a collection.
	win.lat, win.deltaLat = nil, nil
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.put("heap_mb", float64(ms0.HeapAlloc)/(1<<20), "MB")
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-16s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}

	attempted, failed, firstErr := lp.totals()
	if traced {
		e2e := res
		res = result{Metrics: map[string]metric{}}
		if err := traceRun(w, cfg, inst, lp, tr, &res, e2e, win, rt0, rt1, deltaP50); err != nil {
			return result{}, err
		}
		if err := tr.dump(fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.out, name, cfg.seed), machine(name, cfg, traced)); err != nil {
			return result{}, err
		}
		attempted, failed, firstErr = lp.totals()
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	if firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", firstErr)
	}
	return res, nil
}

// instance is one set-up workload, ready to serve.
type instance interface {
	// op runs client c's i-th closed-loop operation. tr is nil outside
	// the traced window.
	op(c, i int, tr *tracer) opResult
	// layers replays sampled inputs through each layer's public entry
	// points, recording spans into tr and layer counts into lc.
	layers(tr *tracer, lc *layerCounts) error
	close()
}

// opResult is one operation as the client saw it.
type opResult struct {
	msgs  int  // messages carried: 1 for /route, the batch size for /batch, 0 for a PATCH
	delta bool // a PATCH /graph
	lat   time.Duration
	err   error // non-nil when the op failed: non-2xx, undelivered, or an invalid walk
}

// loop drives the closed loop: each client issues its next operation
// only after the previous one returned.
type loop struct {
	inst instance
	next []int // per-client operation index, kept across phases

	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  error
}

// window is what one phase of the loop measured.
type window struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	msgs      int64           // messages carried by successful ops
	lat       []time.Duration // ops that carry messages, failures included
	deltaLat  []time.Duration // PATCH round trips
	// slices counts msgs by the one-second slice of the phase they
	// completed in, and ends holds each slice's last completion.
	slices []int64
	ends   []time.Duration
}

// throughput is the median over the window's one-second slices of the
// messages delivered per second, each slice timed from the previous
// slice's last completion to its own: a burst of interference from
// outside the benchmark moves a slice or two, not the median.
func (w window) throughput() float64 {
	var rates []float64
	var prev time.Duration
	for i, m := range w.slices {
		if m > 0 && w.ends[i] > prev {
			rates = append(rates, float64(m)/(w.ends[i]-prev).Seconds())
			prev = w.ends[i]
		}
	}
	return median(rates)
}

func (l *loop) phase(d time.Duration, tr *tracer) window {
	per := make([]window, len(l.next))
	errs := make([]error, len(l.next))
	nsl := max(1, int(d/time.Second))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range l.next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pw := &per[c]
			pw.slices, pw.ends = make([]int64, nsl), make([]time.Duration, nsl)
			for time.Now().Before(deadline) {
				r := l.inst.op(c, l.next[c], tr)
				l.next[c]++
				pw.attempted++
				if r.err != nil {
					pw.failed++
					if errs[c] == nil {
						errs[c] = r.err
					}
				} else {
					at := time.Since(start)
					i := min(nsl-1, int(at*time.Duration(nsl)/d))
					pw.msgs += int64(r.msgs)
					pw.slices[i] += int64(r.msgs)
					pw.ends[i] = at
				}
				if r.delta {
					pw.deltaLat = append(pw.deltaLat, r.lat)
				} else {
					pw.lat = append(pw.lat, r.lat)
				}
			}
		}(c)
	}
	wg.Wait()
	out := window{elapsed: time.Since(start), slices: make([]int64, nsl), ends: make([]time.Duration, nsl)}
	for c := range per {
		for i, m := range per[c].slices {
			out.slices[i] += m
			out.ends[i] = max(out.ends[i], per[c].ends[i])
		}
		out.attempted += per[c].attempted
		out.failed += per[c].failed
		out.msgs += per[c].msgs
		out.lat = append(out.lat, per[c].lat...)
		out.deltaLat = append(out.deltaLat, per[c].deltaLat...)
	}
	l.mu.Lock()
	l.attempted += out.attempted
	l.failed += out.failed
	for _, err := range errs {
		if l.firstErr == nil && err != nil {
			l.firstErr = err
		}
	}
	l.mu.Unlock()
	return out
}

func (l *loop) totals() (attempted, failed int64, firstErr error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed, l.firstErr
}

// percentile returns the nearest-rank p-th percentile of xs (0 when
// empty). It sorts xs in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
