package exper

import (
	"math/rand"
	"strings"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/sim"
)

func TestTable1ReproducesThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	res, err := Table1(rng, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Positive.AllDelivered() {
			t.Errorf("%s: positive side delivered %d/%d", row.Mode, row.Positive.Delivered, row.Positive.Pairs)
		}
		if row.StrategiesDefeated != row.StrategiesTotal {
			t.Errorf("%s: only %d/%d strategies defeated below threshold",
				row.Mode, row.StrategiesDefeated, row.StrategiesTotal)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Table 1", "pred-aware / origin-aware", "n/2", "Algorithm3"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1TooSmall(t *testing.T) {
	if _, err := Table1(rand.New(rand.NewSource(1)), 8, 1); err == nil {
		t.Error("expected error for n < 11")
	}
}

func TestTable2DilationOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	res, err := Table2(rng, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.WorkloadWorst >= row.PaperUpperBound+1e-9 {
			t.Errorf("%s (k=%d): workload dilation %v exceeds the paper bound %v",
				row.Algorithm, row.K, row.WorkloadWorst, row.PaperUpperBound)
		}
		if row.AdversaryDilation < 0 {
			t.Errorf("%s: adversary instance not delivered", row.Algorithm)
		}
	}
	// The adversary dilation of Algorithm 1 meets the exact lower bound.
	if r := res.Rows[0]; r.AdversaryDilation < r.LowerBoundFormula-1e-9 {
		t.Errorf("Algorithm1 adversary dilation %v below bound %v", r.AdversaryDilation, r.LowerBoundFormula)
	}
	// Algorithm 3 is shortest-path: workload worst dilation is 1.
	if r := res.Rows[3]; r.WorkloadWorst > 1+1e-9 {
		t.Errorf("Algorithm3 workload dilation %v > 1", r.WorkloadWorst)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("render missing header")
	}
}

func TestTable3AndTable4RenderAndDefeat(t *testing.T) {
	t3, err := Table3(19)
	if err != nil {
		t.Fatal(err)
	}
	if !t3.Replay.EveryStrategyDefeated() {
		t.Error("Table 3: some strategy survived")
	}
	var sb strings.Builder
	t3.Render(&sb)
	if c := strings.Count(sb.String(), "FAILS"); c != 6 {
		t.Errorf("Table 3 should show exactly 6 failures (one per strategy), got %d:\n%s", c, sb.String())
	}

	t4, err := Table4(17)
	if err != nil {
		t.Fatal(err)
	}
	if !t4.Replay.EveryStrategyDefeated() {
		t.Error("Table 4: some strategy survived")
	}
	sb.Reset()
	t4.Render(&sb)
	if c := strings.Count(sb.String(), "FAILS"); c != 6 {
		t.Errorf("Table 4 should show exactly 6 failures, got %d:\n%s", c, sb.String())
	}
}

func TestFig7Experiment(t *testing.T) {
	res, err := Fig7(12, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == sim.Delivered {
		t.Error("the right-hand rule should fail on the Figure 7 cycle")
	}
	if res.SawT {
		t.Error("no visited node should have t in its k-neighbourhood")
	}
	if !res.TreeDelivered {
		t.Error("the right-hand rule should deliver on the companion tree")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("render missing header")
	}
}

func TestFig13Series(t *testing.T) {
	res, err := Fig13([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.RouteLen != p.PaperLen {
			t.Errorf("n=%d k=%d: route %d != paper %d", p.N, p.K, p.RouteLen, p.PaperLen)
		}
		if p.Dist != p.K+3 {
			t.Errorf("n=%d: dist %d != k+3", p.N, p.Dist)
		}
	}
	// Dilation increases toward 7 along the series.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Dilation <= res.Points[i-1].Dilation {
			t.Errorf("dilation not increasing toward 7: %v then %v",
				res.Points[i-1].Dilation, res.Points[i].Dilation)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 13") {
		t.Error("render missing header")
	}
}

func TestFig17Series(t *testing.T) {
	res, err := Fig17([]int{8, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		if p.RouteLen != p.ExpectLen {
			t.Errorf("n=%d k=%d: route %d != expected %d", p.N, p.K, p.RouteLen, p.ExpectLen)
		}
		if p.Dist != p.K+1 {
			t.Errorf("n=%d: dist %d != k+1", p.N, p.Dist)
		}
		a1 := res.Alg1Points[i]
		if a1.RouteLen != a1.PaperLen {
			t.Errorf("n=%d: Algorithm1 route %d != n+2k = %d", p.N, a1.RouteLen, a1.PaperLen)
		}
		if p.RouteLen >= a1.RouteLen {
			t.Errorf("n=%d: 1B (%d) should beat Algorithm 1 (%d)", p.N, p.RouteLen, a1.RouteLen)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 17") {
		t.Error("render missing header")
	}
}

func TestSweepShowsThresholdBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	res, err := Sweep(rng, 13, 2, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(alg string, k int) (delivered, pairs int) {
		for _, p := range res.Points {
			if p.Algorithm == alg && p.K == k {
				return p.Stats.Delivered, p.Stats.Pairs
			}
		}
		t.Fatalf("missing sweep point %s k=%d", alg, k)
		return 0, 0
	}
	// At and above threshold every algorithm delivers everything sampled.
	checks := []struct {
		alg string
		k   int
	}{
		{"Algorithm1", 4}, {"Algorithm1B", 4}, {"Algorithm2", 5}, {"Algorithm3", 6},
	}
	for _, c := range checks {
		d, p := rate(c.alg, c.k)
		if d != p {
			t.Errorf("%s at threshold k=%d: delivered %d/%d", c.alg, c.k, d, p)
		}
	}
	// At k=1 the workload defeats the aware algorithms somewhere.
	d, p := rate("Algorithm1", 1)
	if d == p {
		t.Errorf("Algorithm1 at k=1 should fail somewhere (delivered %d/%d)", d, p)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Locality sweep") {
		t.Error("render missing header")
	}
}

func TestPairStatsAggregation(t *testing.T) {
	g := gen.Path(4)
	var ps PairStats
	ps.add(g, &sim.Result{Outcome: sim.Looped, Dist: 3})
	ps.add(g, &sim.Result{Outcome: sim.Delivered, Dist: 0})
	ps.finish()
	if ps.Pairs != 2 || ps.Delivered != 1 || ps.AllDelivered() {
		t.Errorf("stats = %+v", ps)
	}
	if ps.MeanDilation != 0 || ps.WorstDilation != 0 {
		t.Errorf("zero-distance deliveries must not contribute dilation: %+v", ps)
	}
	if ps.Worst != nil {
		t.Errorf("no dilation-bearing pair, want nil witness, got %+v", ps.Worst)
	}

	// A delivered detour becomes the worst witness and re-validates.
	ps.add(g, &sim.Result{
		Outcome: sim.Delivered, Dist: 1,
		Route: []graph.Vertex{0, 1, 2, 1},
	})
	if ps.WorstDilation != 3 || ps.Worst == nil {
		t.Fatalf("detour not witnessed: %+v", ps)
	}
	if ps.Worst.S != 0 || ps.Worst.T != 1 {
		t.Errorf("witness endpoints %d -> %d, want 0 -> 1", ps.Worst.S, ps.Worst.T)
	}
	if err := ps.Worst.Check(3); err != nil {
		t.Errorf("witness fails its own bound: %v", err)
	}
	if err := ps.Worst.Check(2.9); err == nil {
		t.Error("witness passes a bound it exceeds")
	}
}

func TestFig1Taxonomy(t *testing.T) {
	res := Fig1()
	if len(res.Components) != 4 {
		t.Fatalf("got %d components, want 4", len(res.Components))
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 1", "independent, constrained active",
		"independent, passive", "multi-rooted, constrained active", "multi-rooted, active"} {
		if !strings.Contains(out, want) {
			t.Errorf("taxonomy missing %q:\n%s", want, out)
		}
	}
}
