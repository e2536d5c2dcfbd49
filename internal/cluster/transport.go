package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"klocal/internal/graph"
	"klocal/internal/route"
)

// Transport carries the four cluster RPCs. Implementations must honour
// the context deadline; a returned error means the exchange did not
// complete (the protocol layer retries on its own schedule).
type Transport interface {
	// Hello exchanges membership tables with a peer.
	Hello(ctx context.Context, addr string, msg *HelloMsg) (*HelloMsg, error)
	// LSAs delivers a batch of announcements and returns the receipt.
	LSAs(ctx context.Context, addr string, batch *LSABatch) (*LSAAck, error)
	// Forward hands an in-flight walk to the shard owning its head.
	Forward(ctx context.Context, addr string, msg *WireMessage) error
	// Reply returns a terminal RouteReply to the entry member.
	Reply(ctx context.Context, addr string, rep *RouteReply) error
}

// ErrReplyTooLarge fails an exchange whose HELLO reply or LSA ack
// runs past maxHelloBody bytes.
var ErrReplyTooLarge = errors.New("cluster: peer reply over the size ceiling")

// HTTPTransport speaks the cluster protocol over net/http against the
// endpoints Member.Handler serves.
type HTTPTransport struct {
	Client *http.Client
}

// NewHTTPTransport builds the production transport. Connection reuse
// matters here (every heartbeat and handoff is a small POST), so the
// client keeps the default pooled transport.
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPTransport{Client: client}
}

func (t *HTTPTransport) post(ctx context.Context, addr, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.Client.Do(req)
	if err != nil {
		// Surface the deadline as such so the forwarder can type it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s%s: %s: %s", addr, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	// A HELLO reply or an LSA ack is read under the HELLO ceiling, so a
	// peer cannot make this member allocate without bound. An ack holds
	// one AckRef per announcement of a batch of at most lsaBatchBytes,
	// far below it.
	lr := &io.LimitedReader{R: resp.Body, N: maxHelloBody + 1}
	err = json.NewDecoder(lr).Decode(out)
	if lr.N == 0 {
		return fmt.Errorf("%w: %s%s over %d bytes", ErrReplyTooLarge, addr, path, maxHelloBody)
	}
	return err
}

func (t *HTTPTransport) Hello(ctx context.Context, addr string, msg *HelloMsg) (*HelloMsg, error) {
	var out HelloMsg
	if err := t.post(ctx, addr, "/cluster/hello", msg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (t *HTTPTransport) LSAs(ctx context.Context, addr string, batch *LSABatch) (*LSAAck, error) {
	var out LSAAck
	if err := t.post(ctx, addr, "/cluster/lsa", batch, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (t *HTTPTransport) Forward(ctx context.Context, addr string, msg *WireMessage) error {
	return t.post(ctx, addr, "/cluster/forward", msg, nil)
}

func (t *HTTPTransport) Reply(ctx context.Context, addr string, rep *RouteReply) error {
	return t.post(ctx, addr, "/cluster/reply", rep, nil)
}

// LoopTransport wires members together in-process: RPCs are direct
// method calls on the registered receiver. It backs the klocalcheck
// differential and the deterministic unit tests, where real sockets
// would only add scheduling noise. The optional Before hook sees every
// RPC first and can fail it — the fault-injection point for exercising
// retransmission, handoff retries, and per-hop deadlines.
type LoopTransport struct {
	mu      sync.Mutex
	members map[string]*Member

	// Before, when set, runs before each RPC (op is "hello", "lsa",
	// "forward" or "reply"). A non-nil return fails the exchange with
	// that error.
	Before func(op, addr string) error
}

// NewLoopTransport builds an empty in-process fabric.
func NewLoopTransport() *LoopTransport {
	return &LoopTransport{members: make(map[string]*Member)}
}

// Register attaches a member at an address.
func (t *LoopTransport) Register(addr string, m *Member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.members[addr] = m
}

// Deregister detaches an address — the loopback version of a crash:
// subsequent RPCs to it fail like a refused connection.
func (t *LoopTransport) Deregister(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.members, addr)
}

func (t *LoopTransport) lookup(op, addr string) (*Member, error) {
	t.mu.Lock()
	before := t.Before
	m := t.members[addr]
	t.mu.Unlock()
	if before != nil {
		if err := before(op, addr); err != nil {
			return nil, err
		}
	}
	if m == nil {
		return nil, fmt.Errorf("cluster: connection refused: %s", addr)
	}
	return m, nil
}

func (t *LoopTransport) Hello(ctx context.Context, addr string, msg *HelloMsg) (*HelloMsg, error) {
	m, err := t.lookup("hello", addr)
	if err != nil {
		return nil, err
	}
	return m.handleHello(msg), nil
}

func (t *LoopTransport) LSAs(ctx context.Context, addr string, batch *LSABatch) (*LSAAck, error) {
	m, err := t.lookup("lsa", addr)
	if err != nil {
		return nil, err
	}
	return m.handleLSAs(batch), nil
}

func (t *LoopTransport) Forward(ctx context.Context, addr string, msg *WireMessage) error {
	m, err := t.lookup("forward", addr)
	if err != nil {
		return err
	}
	// Decouple the sender from the receiver's processing, like the HTTP
	// path's serialization does: the goroutines never share the walk.
	return m.acceptForward(msg.clone())
}

func (t *LoopTransport) Reply(ctx context.Context, addr string, rep *RouteReply) error {
	m, err := t.lookup("reply", addr)
	if err != nil {
		return err
	}
	m.deliverReply(rep)
	return nil
}

// LocalClusterConfig tunes NewLocalCluster.
type LocalClusterConfig struct {
	Shards int
	K      int
	Alg    route.Algorithm
	// HopBudget, RequestTimeout, ForwardAttempts override the defaults
	// when non-zero (tests shrink them to force the typed errors).
	HopBudget       int
	RequestTimeout  time.Duration
	ForwardAttempts int
	PeerDeadline    time.Duration
}

// NewLocalCluster splits g's vertex space into shards members over a
// shared loop transport. Members are not started; settle them with
// Converge and route synchronously — the harness for the klocalcheck
// cluster differential and the forwarder unit tests.
func NewLocalCluster(g *graph.Graph, lc LocalClusterConfig) ([]*Member, *LoopTransport, error) {
	asn, err := NewAssignment(g.Vertices(), lc.Shards)
	if err != nil {
		return nil, nil, err
	}
	lt := NewLoopTransport()
	addrs := make([]string, lc.Shards)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("loop-%d", i)
	}
	members := make([]*Member, lc.Shards)
	for i := range members {
		adj := make(map[graph.Vertex][]graph.Vertex)
		for _, v := range asn.Owned(i) {
			adj[v] = g.Adj(v)
		}
		cfg := Config{
			Index:           i,
			K:               lc.K,
			Alg:             lc.Alg,
			SelfAddr:        addrs[i],
			Seeds:           addrs,
			HopBudget:       lc.HopBudget,
			RequestTimeout:  lc.RequestTimeout,
			ForwardAttempts: lc.ForwardAttempts,
			PeerDeadline:    lc.PeerDeadline,
		}
		m, err := NewMember(cfg, asn, adj, lt)
		if err != nil {
			return nil, nil, err
		}
		lt.Register(addrs[i], m)
		members[i] = m
	}
	return members, lt, nil
}
