package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/serve"
)

// toyConfig shrinks every workload to a size that runs in well under a
// second.
func toyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.window = 300 * time.Millisecond
	cfg.warmup = 50 * time.Millisecond
	cfg.fillWarmup = 50 * time.Millisecond
	cfg.out = t.TempDir()
	cfg.lollipopN = 24
	cfg.gridN = 12 * 12
	cfg.churnK = 2
	cfg.scaleSide = 30
	cfg.cacheCap = 64
	cfg.shards = 2
	cfg.flapEvery = 4
	cfg.chords = 2
	cfg.pairs = 256
	cfg.coldPairs = 512
	cfg.setupReps = 2
	cfg.slowSetupReps = 1
	cfg.sample = 32
	cfg.maxViews = 32
	cfg.deltaFlaps = 4
	return cfg
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsReportDeclaredMetrics runs every workload at toy sizes,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json declares, each with its unit.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			var out bytes.Buffer
			res, err := run(name, toyConfig(t), traced, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if !strings.HasPrefix(out.String(), "machine: nproc=") {
				t.Errorf("%s trace=%t: output does not start with the machine header", name, traced)
			}
			if traced {
				checkIdlePredictions(t, name, res, out.String())
			}
		}
	}
}

// checkIdlePredictions pins the two idle-layer predictions the traced
// run makes and that its reconciliation table prints.
func checkIdlePredictions(t *testing.T, name string, res result, out string) {
	t.Helper()
	switch name {
	case "route-warm":
		if got := res.Metrics["prep.hit_ratio"].Value; got != 1 {
			t.Errorf("route-warm prep.hit_ratio = %v, want 1 (every view prewarmed)", got)
		}
	case "scale-cold":
		if got := res.Metrics["graph.dist_us"].Value; got != 0 {
			t.Errorf("scale-cold graph.dist_us = %v, want 0 (store-backed walks skip the BFS)", got)
		}
	}
	if !strings.Contains(out, "reconciliation") || !strings.Contains(out, "unexplained") {
		t.Errorf("%s: traced output has no reconciliation table", name)
	}
}

// TestCheckerRejectsCorruptReplies corrupts otherwise valid replies and
// checks that each corruption is caught.
func TestCheckerRejectsCorruptReplies(t *testing.T) {
	g := gen.Grid(4, 4) // vertex r·4+c
	plus := g.WithEdge(0, 15)
	topo := func(e int64) *graph.Graph {
		switch e {
		case 1:
			return g
		case 2:
			return plus
		}
		return nil
	}
	p := pair{s: 0, t: 2, dist: 2}
	good := serve.RouteReply{Epoch: 2, S: 0, T: 2, Delivered: true, Hops: 2, Dist: 2, Route: []graph.Vertex{0, 1, 2}}
	ep := epochs{lo: 1, hi: 2, topo: topo}
	if err := checkReply(good, p, ep, walkCheck{bound: 1}); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	nonEdge := good
	nonEdge.Route = []graph.Vertex{0, 5, 2} // {0, 5} is no grid edge
	stale := good
	stale.Epoch = 1
	chordOnOldEpoch := serve.RouteReply{Epoch: 1, S: 0, T: 15, Delivered: true, Hops: 1, Route: []graph.Vertex{0, 15}}
	undelivered := good
	undelivered.Delivered = false
	for name, c := range map[string]struct {
		rr serve.RouteReply
		p  pair
		ep epochs
	}{
		"non-edge hop":             {nonEdge, p, ep},
		"stale epoch":              {stale, p, epochs{lo: 2, hi: 2, topo: topo}},
		"future epoch":             {good, p, epochs{lo: 1, hi: 1, topo: topo}},
		"chord on the wrong epoch": {chordOnOldEpoch, pair{s: 0, t: 15, dist: 6}, ep},
		"undelivered":              {undelivered, p, ep},
	} {
		if err := checkReply(c.rr, c.p, c.ep, walkCheck{}); err == nil {
			t.Errorf("%s: corrupt reply accepted", name)
		}
	}
	long := good
	long.Route, long.Hops, long.Dist = []graph.Vertex{0, 1, 5, 6, 2}, 4, 2
	if err := checkReply(long, p, ep, walkCheck{bound: 1}); err == nil {
		t.Error("stretch over the bound accepted")
	}

	csr, err := gen.GridCSR(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	storeGood := serve.RouteReply{Epoch: 1, S: 0, T: 2, Delivered: true, Hops: 2, Route: []graph.Vertex{0, 1, 2}}
	if err := checkStoreReply(storeGood, p, csr, walkCheck{maxHops: 3}); err != nil {
		t.Fatalf("valid store reply rejected: %v", err)
	}
	storeBad := storeGood
	storeBad.Route = []graph.Vertex{0, 5, 2}
	if err := checkStoreReply(storeBad, p, csr, walkCheck{maxHops: 3}); err == nil {
		t.Error("store walk with a non-edge hop accepted")
	}

	body := mustJSON(serve.DeltaReply{GraphReply: serve.GraphReply{Epoch: 3}, Applied: 1, Dirty: 5})
	if _, err := checkDeltaReply(200, body, 3, 16); err != nil {
		t.Fatalf("valid PATCH reply rejected: %v", err)
	}
	if _, err := checkDeltaReply(200, body, 4, 16); err == nil {
		t.Error("PATCH reply that skipped an epoch accepted")
	}
	if _, err := checkDeltaReply(200, mustJSON(serve.DeltaReply{GraphReply: serve.GraphReply{Epoch: 3}, Applied: 1, Dirty: 16}), 3, 16); err == nil {
		t.Error("PATCH reply dirtying every view accepted")
	}
	if err := checkRouteReply(429, []byte(`{"error":"saturated"}`), p, ep, walkCheck{}); err == nil {
		t.Error("429 reply accepted")
	}
}
