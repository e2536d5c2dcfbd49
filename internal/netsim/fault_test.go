package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"klocal/internal/fault"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/route"
)

// startFaulty discovers g under plan on two fresh networks and requires
// identical protocol counts from both: discovery is a function of the
// topology and the plan alone. It returns the first network.
func startFaulty(t *testing.T, g *graph.Graph, k int, alg route.Algorithm, plan fault.Plan) *Network {
	t.Helper()
	nw := discoverFaulty(t, g, k, alg, plan)
	again := discoverFaulty(t, g, k, alg, plan)
	again.Stop()
	if a, b := nw.Stats(), again.Stats(); a != b {
		t.Fatalf("one plan, two discoveries, different counts:\n%+v\n%+v", a, b)
	}
	return nw
}

func discoverFaulty(t *testing.T, g *graph.Graph, k int, alg route.Algorithm, plan fault.Plan) *Network {
	t.Helper()
	nw := NewFaulty(g, k, alg, plan)
	nw.Start()
	t.Cleanup(nw.Stop)
	if err := nw.Discover(); err != nil {
		t.Fatalf("discover: %v", err)
	}
	return nw
}

// routeString canonicalizes a route for golden comparison.
func routeString(r []graph.Vertex) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ">")
}

// TestZeroFaultPlanMatchesGolden pins the zero-fault simulator to the
// pre-fault-layer behaviour, recorded from the seed implementation on
// fixed seeds: identical routes everywhere, the identical LSA count on
// the cycle, and zero fault-layer activity. (The closed-form count on
// every family is TestZeroPlanDiscoveryCountsAreExact.)
func TestZeroFaultPlanMatchesGolden(t *testing.T) {
	// Scenario 1: Cycle(12), Algorithm3, k = T(n) = 6.
	{
		g := gen.Cycle(12)
		alg := route.Algorithm3()
		nw := startFaulty(t, g, alg.MinK(12), alg, fault.Plan{})
		r1, err := nw.Send(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := nw.Send(3, 11)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := routeString(r1), "0>1>2>3>4>5>6"; got != want {
			t.Errorf("cycle route 0->6 = %s, want %s", got, want)
		}
		if got, want := routeString(r2), "3>2>1>0>11"; got != want {
			t.Errorf("cycle route 3->11 = %s, want %s", got, want)
		}
		st := nw.Stats()
		if st.LSATransmissions != 228 {
			t.Errorf("cycle LSA transmissions = %d, want the golden 228", st.LSATransmissions)
		}
		if st.LSARetransmissions != 0 || st.Dropped != 0 || st.Duplicated != 0 ||
			st.Delayed != 0 || st.DeadDeclared != 0 || st.DataRetries != 0 {
			t.Errorf("zero-fault run shows fault activity: %+v", st)
		}
		if st.DiscoveryRounds != 0 {
			t.Errorf("perfect network should settle in round 0, took %d", st.DiscoveryRounds)
		}
		nw.Stop()
	}
	// Scenario 2: RandomConnected(seed 42, n=20, p=0.15), Algorithm1,
	// k = T(n) = 5, pair stream from seed 99.
	{
		rg := rand.New(rand.NewSource(42))
		g := gen.RandomConnected(rg, 20, 0.15)
		alg := route.Algorithm1()
		nw := startFaulty(t, g, alg.MinK(20), alg, fault.Plan{})
		golden := []string{
			"17>3", "10>6>2", "2>6>10>3", "1>8>4",
			"9>7>2>12", "10>3>9", "10>3>9", "15",
		}
		vs := g.Vertices()
		pr := rand.New(rand.NewSource(99))
		for i, want := range golden {
			s := vs[pr.Intn(len(vs))]
			d := vs[pr.Intn(len(vs))]
			r, err := nw.Send(s, d)
			if err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			if got := routeString(r); got != want {
				t.Errorf("random-graph route %d = %s, want golden %s", i, got, want)
			}
		}
		nw.Stop()
	}
	// Scenario 3: Grid(4,5), Algorithm2, k = T(20) = 7.
	{
		g := gen.Grid(4, 5)
		alg := route.Algorithm2()
		nw := startFaulty(t, g, alg.MinK(g.N()), alg, fault.Plan{})
		r, err := nw.Send(0, 19)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := routeString(r), "0>1>2>3>4>9>14>19"; got != want {
			t.Errorf("grid route = %s, want golden %s", got, want)
		}
		nw.Stop()
	}
}

// paperFamilies are the structural graph families the paper's positive
// results range over, at sizes suited to fault sweeps.
func paperFamilies(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":     gen.Path(n),
		"cycle":    gen.Cycle(n),
		"spider":   gen.Spider(4, (n-1)/4),
		"lollipop": gen.Lollipop(n-n/3, n/3),
	}
}

// TestDiscoveryConvergesUnderLoss is the headline robustness property:
// under 20% independent loss on every link transmission, discovery still
// terminates with every node holding exactly G_k(u), and delivery is
// 100% for all pairs.
func TestDiscoveryConvergesUnderLoss(t *testing.T) {
	alg := route.Algorithm3()
	for name, g := range paperFamilies(24) {
		for _, seed := range []uint64{1, 2, 3} {
			k := alg.MinK(g.N())
			nw := startFaulty(t, g, k, alg, fault.Plan{Seed: seed, Loss: 0.2})
			for _, v := range g.Vertices() {
				want := nbhd.Extract(g, v, k).G
				got := nw.View(v)
				if got == nil || !got.Equal(want) {
					t.Fatalf("%s seed %d: lossy view at %d differs from G_k:\n got %v\nwant %v",
						name, seed, v, got, want)
				}
			}
			st := nw.Stats()
			if st.LSARetransmissions == 0 || st.Dropped == 0 {
				t.Errorf("%s seed %d: 20%% loss produced no retransmissions (%+v)", name, seed, st)
			}
			// Every pair must still deliver: data-path retransmission
			// absorbs the loss.
			vs := g.Vertices()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 30; i++ {
				s := vs[rng.Intn(len(vs))]
				d := vs[rng.Intn(len(vs))]
				if _, err := nw.Send(s, d); err != nil {
					t.Fatalf("%s seed %d: send %d->%d under loss: %v", name, seed, s, d, err)
				}
			}
			nw.Stop()
		}
	}
}

// TestDiscoveryUnderLossLargest exercises the acceptance bound: n = 64,
// k at the Algorithm3 threshold, 20% loss.
func TestDiscoveryUnderLossLargest(t *testing.T) {
	if testing.Short() {
		t.Skip("large lossy discovery")
	}
	g := gen.Cycle(64)
	alg := route.Algorithm3()
	k := alg.MinK(64)
	nw := startFaulty(t, g, k, alg, fault.Plan{Seed: 9, Loss: 0.2})
	for _, v := range g.Vertices() {
		want := nbhd.Extract(g, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(want) {
			t.Fatalf("lossy view at %d differs from G_k", v)
		}
	}
	if _, err := nw.Send(0, 32); err != nil {
		t.Fatalf("antipodal send: %v", err)
	}
}

// TestDiscoveryWithDuplicationAndReorder checks that sequence-number
// dedup and bounded reorder keep views exact.
func TestDiscoveryWithDuplicationAndReorder(t *testing.T) {
	g := gen.Grid(4, 5)
	alg := route.Algorithm3()
	k := alg.MinK(g.N())
	nw := startFaulty(t, g, k, alg, fault.Plan{Seed: 4, Loss: 0.1, Dup: 0.2, MaxDelay: 3})
	for _, v := range g.Vertices() {
		want := nbhd.Extract(g, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(want) {
			t.Fatalf("view at %d differs under dup+reorder", v)
		}
	}
	st := nw.Stats()
	if st.Duplicated == 0 || st.Delayed == 0 {
		t.Errorf("expected duplication and delay activity: %+v", st)
	}
	if _, err := nw.Send(0, 19); err != nil {
		t.Fatal(err)
	}
}

// liveSubgraph removes every edge incident to a crashed node, leaving
// the survivors' topology.
func liveSubgraph(g *graph.Graph, crashed ...graph.Vertex) *graph.Graph {
	down := make(map[graph.Vertex]bool)
	for _, v := range crashed {
		down[v] = true
	}
	var gone []graph.Edge
	for _, e := range g.Edges() {
		if down[e.U] || down[e.V] {
			gone = append(gone, e)
		}
	}
	return g.WithoutEdges(gone)
}

// TestDiscoveryWithCrashedNodes: nodes dead from the start are detected
// by their neighbours (retransmission budget exhausted), withdrawn via
// tombstones, and every survivor's view equals G_k(u) of the live
// topology.
func TestDiscoveryWithCrashedNodes(t *testing.T) {
	g := gen.Grid(3, 4)
	alg := route.Algorithm3()
	k := alg.MinK(g.N())
	const dead = graph.Vertex(5)
	plan := fault.Plan{
		Crashes:     []fault.Crash{{Node: dead, From: 0, To: 0}},
		MaxAttempts: 4, // speed up death declaration; no loss, so retries are pure liveness probes
	}
	nw := startFaulty(t, g, k, alg, plan)
	gLive := liveSubgraph(g, dead)
	for _, v := range g.Vertices() {
		if v == dead {
			if nw.View(v) != nil {
				t.Errorf("crashed node %d should have no view", v)
			}
			continue
		}
		want := nbhd.Extract(gLive, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(want) {
			t.Fatalf("view at %d differs from live-topology G_k:\n got %v\nwant %v", v, nw.View(v), want)
		}
	}
	if nw.Stats().DeadDeclared == 0 {
		t.Error("neighbours never declared the crashed node dead")
	}
	// Live pairs route around the hole.
	r, err := nw.Send(4, 6)
	if err != nil {
		t.Fatalf("routing around the crash: %v", err)
	}
	for _, v := range r {
		if v == dead {
			t.Fatalf("route visits the crashed node: %v", r)
		}
	}
	// Traffic to the dead node fails with the typed liveness error.
	if _, err := nw.Send(0, dead); !errors.Is(err, ErrNodeDown) {
		t.Errorf("send to crashed node: err = %v, want ErrNodeDown", err)
	}
}

// TestCrashAndRestartDuringDiscovery: a node that is down for the first
// rounds of discovery and then returns must end with — and appear in —
// exact full-topology views: its neighbours' pending retransmissions and
// the repair protocol re-deliver everything it missed, and its fresh
// announcement overrides any tombstone.
func TestCrashAndRestartDuringDiscovery(t *testing.T) {
	g := gen.Cycle(10)
	alg := route.Algorithm2()
	k := alg.MinK(10)
	plan := fault.Plan{
		Crashes: []fault.Crash{{Node: 3, From: 0, To: 6}},
	}
	nw := startFaulty(t, g, k, alg, plan)
	for _, v := range g.Vertices() {
		want := nbhd.Extract(g, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(want) {
			t.Fatalf("post-restart view at %d differs from full G_k:\n got %v\nwant %v", v, nw.View(v), want)
		}
	}
	if _, err := nw.Send(0, 3); err != nil {
		t.Fatalf("send to the restarted node: %v", err)
	}
}

// TestDroppedLSADoesNotDeadlockDiscovery is the regression test for the
// quiescence redesign: the seed implementation counted in-flight
// messages with a WaitGroup, so losing a single LSA meant Discover
// blocked forever. Drop exactly one LSA and demand termination (the test
// binary's timeout is the watchdog) with exact views.
func TestDroppedLSADoesNotDeadlockDiscovery(t *testing.T) {
	g := gen.Grid(3, 4)
	alg := route.Algorithm3()
	k := alg.MinK(g.N())
	for _, victim := range []uint64{1, 7, 19, 40} {
		inj := fault.DropIndices(fault.ClassLSA, victim)
		nw := NewWithInjector(g, k, alg, fault.Plan{}, inj)
		nw.Start()
		if err := nw.Discover(); err != nil {
			t.Fatalf("victim %d: discover: %v", victim, err)
		}
		for _, v := range g.Vertices() {
			want := nbhd.Extract(g, v, k).G
			if got := nw.View(v); got == nil || !got.Equal(want) {
				t.Fatalf("victim %d: view at %d incomplete after single drop", victim, v)
			}
		}
		// The queue delivers in send order, so the victim is the same
		// announcement on every run, and it is retransmitted exactly once.
		if got := nw.Stats().LSARetransmissions; got != 1 {
			t.Errorf("victim %d: %d retransmissions, want exactly 1", victim, got)
		}
		nw.Stop()
	}
}

// TestFaultPlanStatsAreReproducible runs one discovery five times under
// each of a loss plan, a duplication-with-delay plan and a crash window,
// and requires identical protocol counts and exact views every time.
func TestFaultPlanStatsAreReproducible(t *testing.T) {
	g := gen.Grid(5, 6)
	const k = 6
	alg := route.Algorithm3()
	plans := map[string]fault.Plan{
		"loss":      {Seed: 3, Loss: 0.2},
		"dup+delay": {Seed: 3, Dup: 0.3, MaxDelay: 3},
		"crash":     {Seed: 3, Crashes: []fault.Crash{{Node: 14, From: 0, To: 6}}},
	}
	for _, name := range []string{"loss", "dup+delay", "crash"} {
		var first Stats
		for run := 0; run < 5; run++ {
			nw := NewFaulty(g, k, alg, plans[name])
			nw.Start()
			if err := nw.Discover(); err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			for _, v := range g.Vertices() {
				if got, want := nw.View(v), nbhd.Extract(g, v, k).G; got == nil || !got.Equal(want) {
					t.Fatalf("%s run %d: view at %d differs from G_k", name, run, v)
				}
			}
			st := nw.Stats()
			nw.Stop()
			if run == 0 {
				first = st
				if st.Dropped+st.Duplicated+st.Delayed == 0 {
					t.Errorf("%s: the plan injected no fault: %+v", name, st)
				}
				continue
			}
			if st != first {
				t.Errorf("%s run %d: counts differ from run 0:\n got %+v\nwant %+v", name, run, st, first)
			}
		}
	}
}

// TestCutEdgePartitionIsTyped (satellite): after removing a cut edge and
// rediscovering, sends across the cut fail with ErrPartitioned — a
// provable topology fault — not generic hop-budget exhaustion.
func TestCutEdgePartitionIsTyped(t *testing.T) {
	g := gen.Path(6)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(6), alg)
	if err := nw.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	_, err := nw.Send(0, 5)
	if !errors.Is(err, ErrPartitioned) {
		t.Errorf("send across the cut: err = %v, want ErrPartitioned", err)
	}
	if errors.Is(err, ErrHopBudget) {
		t.Errorf("partition misreported as hop-budget exhaustion: %v", err)
	}
	// Same-side traffic is untouched.
	if _, err := nw.Send(0, 2); err != nil {
		t.Errorf("same-side route failed: %v", err)
	}
}

// TestCrashedNextHopIsTyped: a node crashed after discovery blocks
// routes through it with ErrNodeDown, and the hop trace records the
// failure detector firing.
func TestCrashedNextHopIsTyped(t *testing.T) {
	g := gen.Path(6)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(6), alg)
	if err := nw.Crash(3); err != nil {
		t.Fatal(err)
	}
	res := nw.SendDetailed(0, 5)
	if !errors.Is(res.Err, ErrNodeDown) {
		t.Fatalf("route through crashed node: err = %v, want ErrNodeDown", res.Err)
	}
	found := false
	for _, e := range res.Events {
		if e.Kind == "node-down" && e.To == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no node-down event in trace: %v", res.Events)
	}
	// Sending from or to the dead node fails up front.
	if _, err := nw.Send(3, 0); !errors.Is(err, ErrNodeDown) {
		t.Errorf("send from crashed origin: %v", err)
	}
	// After restart and rediscovery everything heals.
	if err := nw.Restart(3); err != nil {
		t.Fatal(err)
	}
	nw.InvalidateDiscovery()
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Send(0, 5); err != nil {
		t.Errorf("post-restart send: %v", err)
	}
}

// TestRediscoverIsNoopWhenCurrent (satellite): Rediscover must not
// reflood when discovery is already valid.
func TestRediscoverIsNoopWhenCurrent(t *testing.T) {
	g := gen.Cycle(8)
	alg := route.Algorithm3()
	nw := startNetwork(t, g, alg.MinK(8), alg)
	before := nw.Stats().LSATransmissions
	if err := nw.Rediscover(); err != nil {
		t.Fatal(err)
	}
	if after := nw.Stats().LSATransmissions; after != before {
		t.Errorf("Rediscover on current discovery reflooded: %d -> %d transmissions", before, after)
	}
}

// TestDataPathRetriesUnderLoss: lossy links cost retransmissions but not
// deliveries, and the retries are visible in the detailed result.
func TestDataPathRetriesUnderLoss(t *testing.T) {
	g := gen.Path(12)
	alg := route.Algorithm3()
	nw := startFaulty(t, g, alg.MinK(12), alg, fault.Plan{Seed: 21, Loss: 0.3})
	totalRetries := 0
	for i := 0; i < 20; i++ {
		res := nw.SendDetailed(0, 11)
		if res.Err != nil {
			t.Fatalf("send %d under 30%% loss: %v", i, res.Err)
		}
		totalRetries += res.Retries
		for _, e := range res.Events {
			if e.Kind != "drop" && e.Kind != "retransmit" && e.Kind != "delay" {
				t.Errorf("unexpected event kind %q", e.Kind)
			}
		}
	}
	if totalRetries == 0 {
		t.Error("30% loss across 220 hops produced zero data retries")
	}
	if nw.Stats().DataRetries == 0 {
		t.Error("stats missed the data retries")
	}
}

// TestBlackoutWindowHealsAfterDiscovery: a link blacked out for the
// first rounds forces retransmission but discovery still converges to
// exact views once the window lifts.
func TestBlackoutWindowHeals(t *testing.T) {
	g := gen.Cycle(8)
	alg := route.Algorithm3()
	k := alg.MinK(8)
	plan := fault.Plan{
		Blackouts: []fault.Blackout{{U: 0, V: 1, From: 0, To: 4}},
	}
	nw := startFaulty(t, g, k, alg, plan)
	for _, v := range g.Vertices() {
		want := nbhd.Extract(g, v, k).G
		if got := nw.View(v); got == nil || !got.Equal(want) {
			t.Fatalf("view at %d differs after blackout heals", v)
		}
	}
}
