// Command tables regenerates every table and quantitative figure of the
// paper and prints them to stdout. Each artifact is verified against
// the paper's claims after rendering (delivery on the positive side,
// defeats on the negative side, dilation bounds, exact route lengths);
// any mismatch makes the command exit non-zero, so a drifted
// reproduction cannot pass unnoticed through scripts or CI.
//
// Usage:
//
//	tables [-n 40] [-seed 1] [-graphs 5] [-sweep] [-sweep-n 13]
//	       [-workers 0]
//
// The sweep routes its pairs through the traffic engine on -workers
// lanes; its output does not depend on -workers.
package main

import (
	"flag"
	"fmt"
	"os"

	"klocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n       = flag.Int("n", 40, "network size for Tables 1-4")
		seed    = flag.Int64("seed", 1, "random seed for the workload graphs")
		graphs  = flag.Int("graphs", 5, "random graphs in the positive-side workload")
		sweep   = flag.Bool("sweep", false, "also run the locality sweep (slow)")
		sweepN  = flag.Int("sweep-n", 13, "network size for the sweep")
		workers = flag.Int("workers", 0, "engine lanes the sweep routes on (0 = GOMAXPROCS)")
	)
	flag.Parse()

	out := os.Stdout
	rng := klocal.NewRand(*seed)

	t1, err := klocal.Table1(rng, *n, *graphs)
	if err != nil {
		return err
	}
	t1.Render(out)
	fmt.Fprintln(out)
	if err := t1.Check(); err != nil {
		return err
	}

	t2, err := klocal.Table2(rng, *n, *graphs)
	if err != nil {
		return err
	}
	t2.Render(out)
	fmt.Fprintln(out)
	if err := t2.Check(); err != nil {
		return err
	}

	t3, err := klocal.Table3(*n)
	if err != nil {
		return err
	}
	t3.Render(out)
	fmt.Fprintln(out)
	if err := t3.Check(); err != nil {
		return err
	}

	t4, err := klocal.Table4(*n)
	if err != nil {
		return err
	}
	t4.Render(out)
	fmt.Fprintln(out)
	if err := t4.Check(); err != nil {
		return err
	}

	klocal.Fig1().Render(out)
	fmt.Fprintln(out)

	f7, err := klocal.Fig7(12, 5, 4)
	if err != nil {
		return err
	}
	f7.Render(out)
	fmt.Fprintln(out)
	if err := f7.Check(); err != nil {
		return err
	}

	f13, err := klocal.Fig13([]int{4, 6, 8, 12, 16, 24, 32})
	if err != nil {
		return err
	}
	f13.Render(out)
	fmt.Fprintln(out)
	if err := f13.Check(); err != nil {
		return err
	}

	f17, err := klocal.Fig17([]int{7, 8, 10, 12, 16, 24, 32})
	if err != nil {
		return err
	}
	f17.Render(out)
	fmt.Fprintln(out)
	if err := f17.Check(); err != nil {
		return err
	}

	mem, err := klocal.MemoryDilation(rng, *n, 200)
	if err != nil {
		return err
	}
	mem.Render(out)
	fmt.Fprintln(out)

	klocal.RandomWalkQuadratic(rng, []int{8, 16, 32, 64}, 30).Render(out)

	if *sweep {
		fmt.Fprintln(out)
		res, err := klocal.Sweep(rng, *sweepN, 3, 20, *workers)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	return nil
}
