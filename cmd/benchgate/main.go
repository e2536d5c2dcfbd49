// Command benchgate is the engine-throughput regression gate: it runs
// the single-worker BenchmarkEngineThroughput series fresh, compares it
// against the committed BENCH_engine.json baseline, and exits non-zero
// when
//
//   - msgs/sec regresses more than -regress (default 10%) below the
//     baseline, or
//   - allocations per routed message exceed -max-allocs-per-msg.
//
// Only the single-worker series is gated: it isolates the per-message
// routing cost from scheduler and core-count effects, so the gate holds
// on any hardware (CI runners included), whereas multi-worker scaling
// ratios depend on the machine. `make bench-gate` wires this into CI.
//
// Both the baseline and the fresh run are `go test -json` event streams
// (the format `make bench` commits), so one parser reads both.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchResult is one parsed benchmark result line.
type benchResult struct {
	msgsPerSec  float64
	allocsPerOp float64
	found       bool
}

// parseStream concatenates the Output fields of a `go test -json` event
// stream and extracts the named benchmark's measurement line. go test
// splits one result line across several events, so measurements are
// parsed from the reassembled text, not per event.
func parseStream(r io.Reader, bench string) (benchResult, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// Tolerate plain-text lines (a raw `go test -bench` capture).
			sb.Write(line)
			sb.WriteByte('\n')
			continue
		}
		if ev.Action == "output" {
			sb.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return benchResult{}, err
	}
	return parseBenchLines(sb.String(), bench)
}

// seriesName reports whether name, as a result line prints it, is the
// series bench: `go test` appends "-<GOMAXPROCS>" to every benchmark
// name when GOMAXPROCS > 1, so "workers=1-2" is workers=1 on two
// procs, while "workers=10" and "workers=1x" are other series.
func seriesName(name, bench string) bool {
	procs, ok := strings.CutPrefix(name, bench)
	n, err := strconv.Atoi(strings.TrimPrefix(procs, "-"))
	return ok && (procs == "" || err == nil && n > 0 && procs == "-"+strconv.Itoa(n))
}

func parseBenchLines(text, bench string) (benchResult, error) {
	var res benchResult
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !seriesName(fields[0], bench) {
			continue
		}
		// fields: name, iterations, then value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return res, fmt.Errorf("benchgate: bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "msgs/sec":
				res.msgsPerSec = v
				res.found = true
			case "allocs/op":
				res.allocsPerOp = v
			}
		}
	}
	if !res.found {
		return res, fmt.Errorf("benchgate: no %q msgs/sec result found", bench)
	}
	return res, nil
}

func runCurrent(bench string) (benchResult, error) {
	// Escape the subtest separator: -bench is a regexp per slash-split
	// element, and "=" is literal, but anchor fully to avoid workers=1x.
	pat := "^" + strings.ReplaceAll(bench, "/", "$/^") + "$"
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pat,
		"-benchmem", "-count=1", "-json", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return benchResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return benchResult{}, err
	}
	res, perr := parseStream(out, bench)
	if err := cmd.Wait(); err != nil {
		return benchResult{}, fmt.Errorf("benchgate: bench run failed: %w", err)
	}
	return res, perr
}

func main() {
	baseline := flag.String("baseline", "BENCH_engine.json", "committed `go test -json` bench stream to gate against")
	current := flag.String("current", "", "pre-recorded bench stream to gate (default: run the benchmark fresh)")
	bench := flag.String("bench", "BenchmarkEngineThroughput/workers=1", "benchmark series to gate")
	batch := flag.Int("batch", 2048, "messages routed per benchmark op (converts allocs/op to allocs/msg)")
	regress := flag.Float64("regress", 0.10, "max fractional msgs/sec regression vs baseline")
	maxAllocs := flag.Float64("max-allocs-per-msg", 4, "max allocations per routed message")
	flag.Parse()

	bf, err := os.Open(*baseline)
	if err != nil {
		fatal(err)
	}
	base, err := parseStream(bf, *bench)
	bf.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *baseline, err))
	}

	var cur benchResult
	if *current != "" {
		cf, err := os.Open(*current)
		if err != nil {
			fatal(err)
		}
		cur, err = parseStream(cf, *bench)
		cf.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *current, err))
		}
	} else {
		if cur, err = runCurrent(*bench); err != nil {
			fatal(err)
		}
	}

	allocsPerMsg := cur.allocsPerOp / float64(*batch)
	floor := base.msgsPerSec * (1 - *regress)
	fmt.Printf("benchgate: %s\n", *bench)
	fmt.Printf("  baseline %.0f msgs/sec, current %.0f msgs/sec (floor %.0f)\n",
		base.msgsPerSec, cur.msgsPerSec, floor)
	fmt.Printf("  current %.2f allocs/msg (gate %.2f)\n", allocsPerMsg, *maxAllocs)

	failed := false
	if cur.msgsPerSec < floor {
		fmt.Printf("FAIL: msgs/sec regressed %.1f%% (> %.0f%% allowed)\n",
			100*(1-cur.msgsPerSec/base.msgsPerSec), 100**regress)
		failed = true
	}
	if allocsPerMsg > *maxAllocs {
		fmt.Printf("FAIL: %.2f allocs/msg exceeds the %.2f gate\n", allocsPerMsg, *maxAllocs)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
