package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// converged builds a settled 3-shard loop cluster over a 12-cycle.
func converged(t *testing.T, lc LocalClusterConfig) ([]*Member, *LoopTransport) {
	t.Helper()
	g := gen.Cycle(12)
	lc.Shards = 3
	if lc.K == 0 {
		lc.K = 6
	}
	lc.Alg = alg2(t)
	members, lt, err := NewLocalCluster(g, lc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		t.Fatal(err)
	}
	return members, lt
}

// TestHopBudgetExhaustion pins the typed budget failure: the reply
// carries ErrKind "hop_budget", the partial walk up to the hop that
// exhausted it, and the per-member trace of exactly those hops.
func TestHopBudgetExhaustion(t *testing.T) {
	members, _ := converged(t, LocalClusterConfig{HopBudget: 2})
	rep, err := members[0].Route(context.Background(), 0, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("2-hop budget delivered a 6-hop route")
	}
	if rep.ErrKind != "hop_budget" {
		t.Fatalf("ErrKind = %q (%s), want hop_budget", rep.ErrKind, rep.Err)
	}
	if !strings.Contains(rep.Err, ErrHopBudget.Error()) {
		t.Fatalf("reply error %q does not carry the typed message", rep.Err)
	}
	if rep.Hops != 2 || len(rep.Route) != 3 {
		t.Fatalf("partial walk = %v (%d hops), want the 2 budgeted hops", rep.Route, rep.Hops)
	}
	if len(rep.Steps) != len(rep.Route) {
		t.Fatalf("trace has %d steps for partial walk %v", len(rep.Steps), rep.Route)
	}
	for i, st := range rep.Steps {
		if st.Node != rep.Route[i] {
			t.Fatalf("trace step %d is %d, walk says %d", i, st.Node, rep.Route[i])
		}
	}
}

// TestPerHopDeadlineExpiry pins the typed deadline failure: a handoff
// whose transport blows the per-hop deadline surfaces ErrKind
// "peer_deadline" with the partial walk including the hop that could
// not be handed over.
func TestPerHopDeadlineExpiry(t *testing.T) {
	members, lt := converged(t, LocalClusterConfig{
		ForwardAttempts: 2,
		PeerDeadline:    50 * time.Millisecond,
	})
	// Member 1 owns vertices 4..7; stall every handoff to it.
	stalled := members[1].Addr()
	lt.Before = func(op, addr string) error {
		if op == "forward" && addr == stalled {
			return context.DeadlineExceeded
		}
		return nil
	}
	rep, err := members[0].Route(context.Background(), 2, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("stalled handoff delivered")
	}
	if rep.ErrKind != "peer_deadline" {
		t.Fatalf("ErrKind = %q (%s), want peer_deadline", rep.ErrKind, rep.Err)
	}
	retries := members[0].Metrics().Counter("forward_retries")
	if retries == 0 {
		t.Fatal("deadline expiry did not retry before failing")
	}
	// The partial walk must reach the shard boundary: the last vertex is
	// the one that could not be handed to shard 1.
	last := rep.Route[len(rep.Route)-1]
	if owner, _ := members[0].asn.Owner(last); owner != 1 {
		t.Fatalf("partial walk %v does not end at the undeliverable hop", rep.Route)
	}
	if len(rep.Steps) == 0 {
		t.Fatal("partial walk carried no trace")
	}
}

// TestPeerDownFailsFast pins the crash failure mode before detection
// has caught up: the transport refuses, the forwarder retries its
// bounded budget, and the entry gets ErrKind "peer_down" with the
// partial walk.
func TestPeerDownFailsFast(t *testing.T) {
	members, lt := converged(t, LocalClusterConfig{
		ForwardAttempts: 1,
	})
	lt.Deregister(members[1].Addr())
	rep, err := members[0].Route(context.Background(), 2, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("route through a deregistered shard delivered")
	}
	if rep.ErrKind != "peer_down" {
		t.Fatalf("ErrKind = %q (%s), want peer_down", rep.ErrKind, rep.Err)
	}
	if len(rep.Route) == 0 || rep.Route[0] != graph.Vertex(2) {
		t.Fatalf("partial walk %v lost its origin", rep.Route)
	}
}

// TestEntryValidation covers the request-shape failures: unknown
// vertices and a not-yet-converged member.
func TestEntryValidation(t *testing.T) {
	members, _ := converged(t, LocalClusterConfig{})
	rep, err := members[0].Route(context.Background(), 0, 99, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrKind != "unknown_vertex" {
		t.Fatalf("ErrKind = %q, want unknown_vertex", rep.ErrKind)
	}

	// A fresh, unconverged member must refuse with not_ready.
	g := gen.Cycle(12)
	fresh, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 3, K: 6, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = fresh[0].Route(context.Background(), 0, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrKind != "not_ready" {
		t.Fatalf("ErrKind = %q, want not_ready", rep.ErrKind)
	}
}

// TestRequestTimeout pins the lost-message backstop: a reply that never
// comes back (dropped by the transport) resolves as a typed timeout at
// the entry, not a hang.
func TestRequestTimeout(t *testing.T) {
	members, lt := converged(t, LocalClusterConfig{
		RequestTimeout: 100 * time.Millisecond,
	})
	lt.Before = func(op, addr string) error {
		if op == "reply" {
			return context.DeadlineExceeded
		}
		return nil
	}
	rep, err := members[0].Route(context.Background(), 2, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrKind != "timeout" {
		t.Fatalf("ErrKind = %q (%s), want timeout", rep.ErrKind, rep.Err)
	}
	lost := int64(0)
	for _, m := range members {
		lost += m.Metrics().Counter("replies_lost")
	}
	if lost == 0 {
		t.Fatal("dropped reply was not counted as lost")
	}
}

// heldReplies delivers each reply that crosses members, then holds the
// replying walker until the test has read the counters: a count the
// walker made only after its reply was delivered is missing from that
// read.
type heldReplies struct {
	*LoopTransport
	held chan chan struct{}
}

func (h *heldReplies) Reply(addr string, rep *RouteReply, deadline time.Duration) error {
	if err := h.LoopTransport.Reply(addr, rep, deadline); err != nil {
		return err
	}
	release := make(chan struct{})
	h.held <- release
	<-release
	return nil
}

// replyCounts is what the members' counters must show once a set of
// replies has landed.
type replyCounts struct {
	forwards, crossings int64
	failed              map[string]int64 // failed_<kind> by kind
}

func memberCounts(members []*Member) replyCounts {
	c := replyCounts{failed: make(map[string]int64)}
	for _, m := range members {
		rep := m.Metrics()
		c.forwards += rep.Counter("forwards")
		c.crossings += rep.Counter("crossings")
		for name, n := range rep.Counters {
			if kind, ok := strings.CutPrefix(name, "failed_"); ok {
				c.failed[kind] += n
			}
		}
	}
	return c
}

// TestReplyCountsComplete pins the per-segment hop counts: the moment a
// Route returns, with no wait, the members' forwards equal the hops of
// every reply so far, their crossings equal the replies' crossings, and
// each failed_<kind> equals the number of replies of that kind. A reply
// that crosses members holds its walker until the counts are read, so a
// segment that counted its hops after delivering its reply fails here.
func TestReplyCountsComplete(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		budget int
	}{
		{"lollipop", gen.Lollipop(32, 16), 0},
		{"grid", gen.Grid(8, 8), 0},
		{"grid-budget", gen.Grid(8, 8), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg := alg2(t)
			members, lt, err := NewLocalCluster(tc.g, LocalClusterConfig{
				Shards: 4, K: alg.MinK(tc.g.N()), Alg: alg, HopBudget: tc.budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			hold := &heldReplies{LoopTransport: lt, held: make(chan chan struct{})}
			for _, m := range members {
				m.tr = hold
			}
			if err := Converge(members, 0); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			vs := tc.g.Vertices()
			want := replyCounts{failed: make(map[string]int64)}
			for i := 0; i < 300; i++ {
				s, d := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
				entry := i % len(members)
				rep, err := members[entry].Route(context.Background(), s, d, false)
				if err != nil {
					t.Fatal(err)
				}
				got := memberCounts(members)
				if rep.Member != entry {
					close(<-hold.held)
				}
				want.forwards += int64(rep.Hops)
				want.crossings += int64(rep.Crossings)
				if rep.ErrKind != "" {
					want.failed[rep.ErrKind]++
				}
				if got.forwards != want.forwards || got.crossings != want.crossings {
					t.Fatalf("after route %d (%d->%d): forwards %d, crossings %d; replies say %d hops, %d crossings",
						i, s, d, got.forwards, got.crossings, want.forwards, want.crossings)
				}
				if fmt.Sprint(got.failed) != fmt.Sprint(want.failed) {
					t.Fatalf("after route %d: failed counters %v, replies %v", i, got.failed, want.failed)
				}
			}
			if exhausted := want.failed["hop_budget"]; tc.budget > 0 && exhausted == 0 {
				t.Fatal("no walk exhausted the small hop budget")
			} else if tc.budget == 0 && len(want.failed) > 0 {
				t.Fatalf("walks failed at T(n): %v", want.failed)
			}
			t.Logf("%d hops, %d crossings, failures %v", want.forwards, want.crossings, want.failed)
		})
	}
}

// BenchmarkClusterRouteParallel routes from every core at once through
// a converged 4-member loop cluster on lollipop-512 at T(n), the shape
// of klbench's cluster-loop, with every owned view built first. Walks
// that share a member contend on whatever the hop path shares, which a
// walk timed alone cannot show. One op is one routed message.
func BenchmarkClusterRouteParallel(b *testing.B) {
	const n = 512
	g := gen.Lollipop(n-n/3, n/3)
	alg := route.Algorithm2()
	members, _, err := NewLocalCluster(g, LocalClusterConfig{Shards: 4, K: alg.MinK(n), Alg: alg})
	if err != nil {
		b.Fatal(err)
	}
	if err := Converge(members, 0); err != nil {
		b.Fatal(err)
	}
	vs := g.Vertices()
	for i, s := range vs {
		rep, err := members[i%len(members)].Route(context.Background(), s, vs[(i+1)%len(vs)], false)
		if err != nil || !rep.Delivered {
			b.Fatalf("warm-up route from %d: %v %+v", s, err, rep)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]graph.Vertex, 4096)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{vs[rng.Intn(n)], vs[rng.Intn(n)]}
	}
	var next atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			p := pairs[i%len(pairs)]
			rep, err := members[i%len(members)].Route(context.Background(), p[0], p[1], false)
			if err != nil || !rep.Delivered {
				b.Errorf("route %d->%d: %v %+v", p[0], p[1], err, rep)
				return
			}
		}
	})
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/msg")
}
