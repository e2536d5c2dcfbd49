package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"klocal/internal/graph"
)

// TestMemberBodyLimits is the member twin of serve's TestBodyLimits.
// Every body a member decodes answers 400 when truncated and 413 past
// its endpoint's ceiling, even when it is valid JSON (leading
// whitespace pads it), whether its length is declared up front
// (refused unread) or only found by reading ("streamed"). After every
// rejection the member keeps routing.
func TestMemberBodyLimits(t *testing.T) {
	members, _ := converged(t, LocalClusterConfig{})
	m := members[0]
	h := m.Handler()
	// length overrides the declared Content-Length when non-zero: -1
	// leaves it unknown.
	serve := func(path, body string, length int64) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if length != 0 {
			req.ContentLength = length
		}
		h.ServeHTTP(rec, req)
		return rec
	}
	pad := func(limit int64, body string) string { return strings.Repeat(" ", int(limit)) + body }
	const route = `{"s":0,"t":6}`
	routes := func(t *testing.T, body string, length int64) {
		t.Helper()
		var rep RouteReply
		rec := serve("/route", body, length)
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); rec.Code != http.StatusOK || err != nil || !rep.Delivered {
			t.Fatalf("/route: code %d, delivered %v (%v): %s", rec.Code, rep.Delivered, err, rec.Body)
		}
	}
	t.Run("route/at-limit", func(t *testing.T) { routes(t, pad(maxRouteBody-int64(len(route)), route), 0) })
	t.Run("route/at-limit-streamed", func(t *testing.T) { routes(t, pad(maxRouteBody-int64(len(route)), route), -1) })

	for _, ep := range []struct {
		path  string
		limit int64
	}{
		{"/route", maxRouteBody},
		{"/cluster/hello", maxHelloBody},
		{"/cluster/lsa", m.lim.lsa},
		{"/cluster/forward", m.lim.walk},
		{"/cluster/reply", m.lim.walk},
	} {
		for _, tc := range []struct {
			name, body string
			length     int64
			want       int
		}{
			{"truncated", `{"s":0,`, 0, http.StatusBadRequest},
			{"oversized", pad(ep.limit, `{}`), 0, http.StatusRequestEntityTooLarge},
			{"oversized-streamed", pad(ep.limit, `{}`), -1, http.StatusRequestEntityTooLarge},
			{"oversized-declared", `{}`, ep.limit + 1, http.StatusRequestEntityTooLarge},
		} {
			t.Run(strings.TrimPrefix(ep.path, "/")+"/"+tc.name, func(t *testing.T) {
				rec := serve(ep.path, tc.body, tc.length)
				if rec.Code != tc.want {
					t.Fatalf("code %d, want %d: %s", rec.Code, tc.want, rec.Body)
				}
				var er errorReply
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("rejection is not a JSON error reply: %q (%v)", rec.Body, err)
				}
				routes(t, route, 0)
			})
		}
	}
}

// TestBodyLimitsAdmitWidestMessages encodes the widest message of each
// growing kind a member of a cluster on n vertices can send, every
// integer at its widest: an announcement adjacent to every other
// vertex, and a traced walk of the full hop budget as a Forward and as
// a Reply. Each must fit the ceiling the receiving member derives, and
// each neighbour or hop must cost no more than the ceiling counts for
// it, so the ceilings hold at any n and budget.
func TestBodyLimitsAdmitWidestMessages(t *testing.T) {
	const n, hopBudget = 50, 8*50 + 16
	lim := newBodyLimits(n, hopBudget)
	const wide = graph.Vertex(math.MinInt64)
	from := PeerInfo{Index: math.MinInt, Addr: "member-0.example:65535", Inc: math.MinInt64, Dead: true}
	size := func(v any) int64 {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}
	fill := func(k int, v graph.Vertex) []graph.Vertex {
		vs := make([]graph.Vertex, k)
		for i := range vs {
			vs[i] = v
		}
		return vs
	}

	batch := func(adj int) int64 {
		return size(LSABatch{From: from, LSAs: []WireLSA{{Origin: wide, Seq: math.MaxUint64, Adj: fill(adj, wide), Tomb: true}}})
	}
	if got := batch(n - 1); got > lim.lsa {
		t.Errorf("an announcement of %d neighbours sends in %d bytes, over the %d-byte LSA ceiling", n-1, got, lim.lsa)
	}
	if got := batch(1) - size(LSABatch{From: from, LSAs: []WireLSA{}}); got > lsaBytes+vertexBytes {
		t.Errorf("an announcement of one neighbour takes %d bytes, over the %d counted", got, lsaBytes+vertexBytes)
	}
	if got := batch(n) - batch(n-1); got > vertexBytes {
		t.Errorf("a neighbour takes %d bytes, over the %d counted", got, vertexBytes)
	}

	steps := func(k int) []Step {
		st := make([]Step, k)
		for i := range st {
			st[i] = Step{Index: math.MinInt, Node: wide, Member: math.MinInt}
		}
		return st
	}
	forward := func(hops int) int64 {
		return size(WireMessage{ID: math.MaxUint64, EntryAddr: from.Addr, EntryIndex: math.MinInt, S: wide, T: wide, Prev: wide,
			Route: fill(hops+1, wide), Budget: math.MinInt, Crossings: math.MinInt, Trace: true, Steps: steps(hops + 1)})
	}
	reply := func(hops int) int64 {
		return size(RouteReply{ID: math.MaxUint64, Member: math.MinInt, Algo: "alg2", K: math.MinInt, S: wide, T: wide,
			Hops: math.MinInt, Crossings: math.MinInt, Route: fill(hops+1, wide), Err: ErrHopBudget.Error(), ErrKind: "hop_budget",
			Steps: steps(hops + 1), LatencyNS: math.MinInt64})
	}
	for _, msg := range []struct {
		kind string
		size func(hops int) int64
	}{{"Forward", forward}, {"Reply", reply}} {
		if got := msg.size(hopBudget); got > lim.walk {
			t.Errorf("a %s of a traced %d-hop walk sends in %d bytes, over the %d-byte walk ceiling", msg.kind, hopBudget, got, lim.walk)
		}
		if got := msg.size(hopBudget+1) - msg.size(hopBudget); got > vertexBytes+stepBytes {
			t.Errorf("a hop takes %d bytes of a %s, over the %d counted", got, msg.kind, vertexBytes+stepBytes)
		}
	}
}

// TestWireLSABytes pins the size retryPass batches by to encoding/json:
// each announcement's encoding plus its separating comma.
func TestWireLSABytes(t *testing.T) {
	for _, l := range []WireLSA{
		{},
		{Origin: 7, Seq: 1},
		{Origin: -3, Seq: 1 << 32, Adj: []graph.Vertex{2}},
		{Origin: 1_000_000, Seq: 4_294_967_297, Adj: []graph.Vertex{999_999, 1_000_001, -1, 0}},
		{Origin: math.MinInt64, Seq: math.MaxUint64, Adj: []graph.Vertex{math.MaxInt64, math.MinInt64}, Tomb: true},
		{Origin: 12, Seq: 9, Tomb: true},
		{Origin: 12, Seq: 9, Adj: []graph.Vertex{}},
	} {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wireLSABytes(&l), len(b)+1; got != want {
			t.Errorf("wireLSABytes(%s) = %d, want %d", b, got, want)
		}
	}
}

// circulant returns the graph on vertices 0 … n−1 where each vertex is
// adjacent to the reach vertices on either side of it, mod n.
func circulant(n, reach int) *graph.Graph {
	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		for d := 1; d <= reach; d++ {
			b.AddEdge(graph.Vertex(v), graph.Vertex((v+d)%n))
		}
	}
	return b.Build()
}

// TestFailedBatchEndsPeerExchange offers a store that takes several
// batches to a peer that refuses link-state: one retry pass must try a
// single batch, not each of them, and leave every transfer pending.
func TestFailedBatchEndsPeerExchange(t *testing.T) {
	members, lt, err := NewLocalCluster(circulant(3000, 10), LocalClusterConfig{Shards: 2, K: 2, Alg: alg2(t)})
	if err != nil {
		t.Fatal(err)
	}
	members[1].helloPass() // member 0 meets member 1 and offers it the whole store
	m := members[0]
	m.mu.Lock()
	size := 0
	for _, x := range m.peers[1].pending {
		size += wireLSABytes(&x.l)
	}
	m.mu.Unlock()
	if size <= 2*lsaBatchBytes {
		t.Fatalf("the offer encodes in %d bytes, under three batches", size)
	}
	want := m.pendingCount()
	sent := 0
	lt.Before = func(op, addr string) error {
		if op != "lsa" {
			return nil
		}
		sent++
		return errors.New("refused")
	}
	m.retryPass(time.Now())
	if sent != 1 {
		t.Errorf("one pass sent %d batches to a peer that refused the first", sent)
	}
	if got := m.pendingCount(); got != want {
		t.Errorf("%d transfers pending after the pass, want all %d", got, want)
	}
}

// TestHTTPClusterConvergesPastLSACeiling boots a two-member cluster over
// real HTTP on a graph where one member's store, sent as a single batch,
// is larger than the LSA ceiling its peer enforces. Both members must
// still learn the whole graph with no peer condemned and nothing left
// to send, which takes retryPass splitting each offer into batches
// under lsaBatchBytes, and then route across the shard boundary.
func TestHTTPClusterConvergesPastLSACeiling(t *testing.T) {
	g := circulant(3000, 10)
	a := startTCPMember(t, g, 2, 0, 2, 1, nil)
	defer a.kill()

	a.m.mu.Lock()
	var store []WireLSA
	for v, rec := range a.m.store {
		store = append(store, wireLSA(v, rec))
	}
	a.m.mu.Unlock()
	whole, err := json.Marshal(LSABatch{From: PeerInfo{Addr: a.addr()}, LSAs: store})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) <= a.m.lim.lsa {
		t.Fatalf("member 0's store encodes in %d bytes, within the %d-byte LSA ceiling: the graph is too small to test splitting", len(whole), a.m.lim.lsa)
	}

	c := startTCPMember(t, g, 2, 1, 2, 1, []string{a.addr()})
	defer c.kill()
	// Ready alone is not enough: a member that condemns its peer covers
	// the peer's vertices with tombstones.
	settled := func(m *Member) bool {
		st := m.Stats()
		return st.Ready && st.Tombstones == 0 && st.PeersDead == 0 && st.PendingLSAs == 0
	}
	waitUntil(t, "both members to learn the whole graph", 15*time.Second, func() bool {
		return settled(a.m) && settled(c.m)
	})
	rep, err := a.m.Route(context.Background(), 1490, 1510, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || rep.Crossings == 0 {
		t.Fatalf("1490 → 1510 across the shard boundary: delivered %v, crossings %d (%s)", rep.Delivered, rep.Crossings, rep.Err)
	}
}

// countingBody counts the bytes read from a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingTransport wraps every response body in a countingBody.
type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, c.n}
	}
	return resp, err
}

// TestPeerReplyCeiling: HTTPTransport reads a peer's HELLO reply and
// LSA ack under maxHelloBody. A reply of exactly the ceiling decodes; a
// 2 MiB one (valid JSON, padded with whitespace) fails both exchanges
// with ErrReplyTooLarge after at most the ceiling plus one byte is read.
func TestPeerReplyCeiling(t *testing.T) {
	var reply atomic.Pointer[string]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, *reply.Load())
	}))
	defer srv.Close()
	var read atomic.Int64
	tr := NewHTTPTransport(&http.Client{Transport: countingTransport{srv.Client().Transport, &read}})
	addr := srv.Listener.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	exchanges := []struct {
		name string
		call func() error
	}{
		{"hello", func() error { _, err := tr.Hello(ctx, addr, &HelloMsg{}); return err }},
		{"lsa", func() error { _, err := tr.LSAs(ctx, addr, &LSABatch{}); return err }},
	}
	for _, size := range []int{maxHelloBody, 2 << 20} {
		body := strings.Repeat(" ", size-2) + "{}"
		reply.Store(&body)
		for _, ex := range exchanges {
			read.Store(0)
			err := ex.call()
			switch {
			case size <= maxHelloBody && err != nil:
				t.Errorf("%s: a %d-byte reply failed: %v", ex.name, size, err)
			case size > maxHelloBody && !errors.Is(err, ErrReplyTooLarge):
				t.Errorf("%s: a %d-byte reply returned %v, want ErrReplyTooLarge", ex.name, size, err)
			case read.Load() > maxHelloBody+1:
				t.Errorf("%s: read %d bytes of a %d-byte reply, ceiling %d", ex.name, read.Load(), size, maxHelloBody)
			}
		}
	}
}
