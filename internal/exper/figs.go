package exper

import (
	"fmt"
	"io"

	"klocal/internal/gen"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// Fig7Result reproduces Figure 7: the naive right-hand rule succeeds on
// trees but circulates forever on a long cycle without ever seeing t.
type Fig7Result struct {
	CycleLen, TailLen, K int
	Outcome              sim.Outcome
	// SawT reports whether any visited node had t within its
	// k-neighbourhood (the paper's claim is that none does).
	SawT bool
	// TreeDelivered is the companion positive claim: the same rule
	// delivers on a comparable spider tree.
	TreeDelivered bool
}

// Fig7 runs the construction at locality k with a cycle longer than 2k
// and a tail longer than k.
func Fig7(cycleLen, tailLen, k int) (*Fig7Result, error) {
	f, err := gen.NewFig7(cycleLen, tailLen)
	if err != nil {
		return nil, err
	}
	alg := route.TreeRightHand()
	res := sim.Bind(alg, f.G, k).Run(f.S, f.T)
	out := &Fig7Result{CycleLen: cycleLen, TailLen: tailLen, K: k, Outcome: res.Outcome}
	for _, v := range res.Route {
		if f.G.Dist(v, f.T) <= k {
			out.SawT = true
		}
	}
	var tree PairStats
	evalAllPairs(alg, gen.Spider(3, (cycleLen+tailLen)/3), k, &tree)
	out.TreeDelivered = tree.AllDelivered()
	return out, nil
}

// Render prints the figure reproduction.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 7 — right-hand rule, cycle %d + tail %d, k = %d\n", r.CycleLen, r.TailLen, r.K)
	fmt.Fprintf(w, "  on the tree:  delivered everywhere = %v\n", r.TreeDelivered)
	fmt.Fprintf(w, "  on the cycle: outcome = %v, some visited node saw t = %v\n", r.Outcome, r.SawT)
}

// FigSeriesPoint is one (n, k) measurement of an extremal construction.
type FigSeriesPoint struct {
	N, K       int
	RouteLen   int
	PaperLen   int
	ExpectLen  int // this implementation's exact prediction
	Dist       int
	Dilation   float64
	PaperLimit float64 // the dilation the paper's formula gives
}

// Fig13Result is the route-length series of Figure 13: Algorithm 1 on the
// cycle-with-pendant family at k = n/4, where the paper derives route
// length exactly 2n−k−3 against dist k+3 (dilation → 7).
type Fig13Result struct {
	Points []FigSeriesPoint
}

// Fig13 measures the series for the given k values (n = 4k).
func Fig13(ks []int) (*Fig13Result, error) {
	res := &Fig13Result{}
	alg := route.Algorithm1()
	for _, k := range ks {
		n := 4 * k
		f, err := gen.NewFig13(n, k)
		if err != nil {
			return nil, err
		}
		r := sim.Bind(alg, f.G, k).Run(f.S, f.T)
		if r.Outcome != sim.Delivered {
			return nil, fmt.Errorf("exper: Fig13 n=%d k=%d not delivered: %v", n, k, r.Outcome)
		}
		res.Points = append(res.Points, FigSeriesPoint{
			N: n, K: k,
			RouteLen:   r.Len(),
			PaperLen:   f.ExpectedRouteLen(),
			ExpectLen:  f.ExpectedRouteLen(),
			Dist:       r.Dist,
			Dilation:   r.Dilation(),
			PaperLimit: 7 - 96/float64(n+12),
		})
	}
	return res, nil
}

// Render prints the series.
func (r *Fig13Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 13 — Algorithm 1 worst case (route 2n−k−3, dist k+3, dilation → 7)")
	fmt.Fprintf(w, "%-6s %-6s %-10s %-10s %-6s %-10s %s\n", "n", "k", "route", "2n-k-3", "dist", "dilation", "7-96/(n+12)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %-6d %-10d %-10d %-6d %-10.4f %.4f\n",
			p.N, p.K, p.RouteLen, p.PaperLen, p.Dist, p.Dilation, p.PaperLimit)
	}
}

// Fig17Result is the route-length series of Figure 17: Algorithm 1B on
// the dormant-edge construction. The paper derives n+2k−6; under this
// repository's dormancy rule the pre-emption provably fires δ* hops
// early, giving exactly n+2k−6−2δ* (see gen.Fig17 and DESIGN.md), still
// approaching dilation 6 as δ*/k → 0.
type Fig17Result struct {
	Points []FigSeriesPoint
	// Alg1Points is the companion series for plain Algorithm 1 (paper:
	// n+2k, the Lemma 14 gap).
	Alg1Points []FigSeriesPoint
}

// Fig17 measures the series for the given k values (n = 4k).
func Fig17(ks []int) (*Fig17Result, error) {
	res := &Fig17Result{}
	alg1b := route.Algorithm1B()
	alg1 := route.Algorithm1()
	for _, k := range ks {
		n := 4 * k
		f, err := gen.NewFig17(n, k)
		if err != nil {
			return nil, err
		}
		r := sim.Bind(alg1b, f.G, k).Run(f.S, f.T)
		if r.Outcome != sim.Delivered {
			return nil, fmt.Errorf("exper: Fig17 n=%d k=%d not delivered: %v", n, k, r.Outcome)
		}
		res.Points = append(res.Points, FigSeriesPoint{
			N: n, K: k,
			RouteLen:   r.Len(),
			PaperLen:   f.PaperRouteLen(),
			ExpectLen:  f.ExpectedRouteLen(),
			Dist:       r.Dist,
			Dilation:   r.Dilation(),
			PaperLimit: 6 - 12/float64(k+1),
		})
		r1 := sim.Bind(alg1, f.G, k).Run(f.S, f.T)
		res.Alg1Points = append(res.Alg1Points, FigSeriesPoint{
			N: n, K: k,
			RouteLen:  r1.Len(),
			PaperLen:  f.Algorithm1RouteLen(),
			ExpectLen: f.Algorithm1RouteLen(),
			Dist:      r1.Dist,
			Dilation:  r1.Dilation(),
		})
	}
	return res, nil
}

// Render prints both series.
func (r *Fig17Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 17 — Algorithm 1B worst case (paper route n+2k−6; here n+2k−6−2δ*, dist k+1)")
	fmt.Fprintf(w, "%-6s %-6s %-10s %-12s %-12s %-6s %-10s %s\n",
		"n", "k", "route", "n+2k-6", "n+2k-6-2δ*", "dist", "dilation", "6-12/(k+1)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %-6d %-10d %-12d %-12d %-6d %-10.4f %.4f\n",
			p.N, p.K, p.RouteLen, p.PaperLen, p.ExpectLen, p.Dist, p.Dilation, p.PaperLimit)
	}
	fmt.Fprintln(w, "  companion: plain Algorithm 1 on the same instances (paper route n+2k)")
	for _, p := range r.Alg1Points {
		fmt.Fprintf(w, "  n=%-5d k=%-4d route=%-6d n+2k=%-6d dilation=%.4f\n",
			p.N, p.K, p.RouteLen, p.PaperLen, p.Dilation)
	}
}
