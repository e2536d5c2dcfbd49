package cluster

import (
	"context"
	"sort"
	"time"

	"klocal/internal/graph"
)

// PeerInfo is one row of the gossiped membership table.
type PeerInfo struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	Inc   int64  `json:"inc"`
	Dead  bool   `json:"dead,omitempty"`
}

// HelloMsg is the heartbeat: the sender's own row plus its full
// membership table. The response carries the receiver's table back, so
// one round trip anti-entropies both directions.
type HelloMsg struct {
	From  PeerInfo   `json:"from"`
	Peers []PeerInfo `json:"peers,omitempty"`
}

// peerState is the member's view of one other shard.
type peerState struct {
	index    int
	addr     string
	inc      int64
	dead     bool
	lastSeen time.Time
	// pending holds the reliable transfers owed to this peer, keyed by
	// origin vertex (a newer announcement replaces the queued one).
	pending map[graph.Vertex]*xfer
}

// selfInfoLocked is this member's own membership row.
func (m *Member) selfInfoLocked() PeerInfo {
	return PeerInfo{Index: m.cfg.Index, Addr: m.cfg.SelfAddr, Inc: m.inc}
}

// tableLocked snapshots the membership table (self included), sorted by
// shard index for deterministic gossip.
func (m *Member) tableLocked() []PeerInfo {
	out := make([]PeerInfo, 0, len(m.peers)+1)
	out = append(out, m.selfInfoLocked())
	for _, p := range m.peers {
		out = append(out, PeerInfo{Index: p.index, Addr: p.addr, Inc: p.inc, Dead: p.dead})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// mergeDirectLocked folds in first-hand evidence of a peer being alive:
// we just completed an exchange with it. Direct contact resurrects a
// dead-marked peer regardless of incarnation (netsim's rule: hearing
// from the condemned refutes the obituary).
func (m *Member) mergeDirectLocked(info PeerInfo, now time.Time) {
	if info.Index == m.cfg.Index || info.Index < 0 || info.Index >= m.asn.shards {
		return
	}
	p := m.peers[info.Index]
	if p == nil {
		p = &peerState{index: info.Index, addr: info.Addr, inc: info.Inc, lastSeen: now,
			pending: make(map[graph.Vertex]*xfer)}
		m.peers[info.Index] = p
		m.pruneSeedLocked(info.Addr)
		m.offerStoreLocked(p)
		return
	}
	if info.Inc >= p.inc {
		p.inc = info.Inc
		if info.Addr != "" {
			p.addr = info.Addr
		}
	}
	p.lastSeen = now
	if p.dead {
		m.resurrectLocked(p)
	}
}

// mergeGossipLocked folds in a second-hand membership row. Higher
// incarnation wins; at equal incarnation a death claim wins (it can
// only be refuted by the accused bumping its incarnation). A row about
// ourselves claiming we are dead triggers self-defense: bump the
// incarnation past the claim and re-announce everything we own.
func (m *Member) mergeGossipLocked(info PeerInfo, now time.Time) {
	if info.Index < 0 || info.Index >= m.asn.shards {
		return
	}
	if info.Index == m.cfg.Index {
		if info.Dead && info.Inc >= m.inc {
			m.inc = info.Inc + 1
			m.met.Add(mTombstonesRefuted, 1)
			// Re-announcing identical adjacencies changes no record's
			// adjacency: self-defense bumps sequence numbers, and the
			// commit rebuilds no union and evicts no view.
			for _, v := range m.asn.Owned(m.cfg.Index) {
				m.reOriginateLocked(v)
			}
			m.commitLocked()
		}
		return
	}
	p := m.peers[info.Index]
	if p == nil {
		p = &peerState{index: info.Index, addr: info.Addr, inc: info.Inc, dead: info.Dead,
			lastSeen: now, pending: make(map[graph.Vertex]*xfer)}
		m.peers[info.Index] = p
		m.down[p.index].Store(p.dead)
		m.pruneSeedLocked(info.Addr)
		if p.dead {
			m.tombstonePeerLocked(p)
		} else {
			m.offerStoreLocked(p)
		}
		return
	}
	switch {
	case info.Inc > p.inc:
		p.inc = info.Inc
		if info.Addr != "" {
			p.addr = info.Addr
		}
		if info.Dead && !p.dead {
			m.markDeadLocked(p, false)
		} else if !info.Dead && p.dead {
			m.resurrectLocked(p)
		}
	case info.Inc == p.inc && info.Dead && !p.dead:
		m.markDeadLocked(p, false)
	}
}

// pruneSeedLocked drops a bootstrap address once it resolved to a peer.
func (m *Member) pruneSeedLocked(addr string) {
	if addr == "" {
		return
	}
	for i, s := range m.seeds {
		if s == addr {
			m.seeds = append(m.seeds[:i], m.seeds[i+1:]...)
			return
		}
	}
}

// markDeadLocked declares a peer dead: drop its transfer queue,
// tombstone every vertex it owns, and flood the tombstones. declared
// distinguishes first-hand detection (we count it and it feeds our own
// gossip) from adopting someone else's claim.
func (m *Member) markDeadLocked(p *peerState, declared bool) {
	if p.dead {
		return
	}
	p.dead = true
	m.down[p.index].Store(true)
	p.pending = make(map[graph.Vertex]*xfer)
	if declared {
		m.met.Add(mDeathsDeclared, 1)
	}
	m.tombstonePeerLocked(p)
}

// tombstonePeerLocked writes tombstones for every vertex the dead peer
// owns and floods them, so views across the cluster withdraw the shard.
func (m *Member) tombstonePeerLocked(p *peerState) {
	for _, v := range m.asn.Owned(p.index) {
		rec := m.store[v]
		if rec != nil && rec.tomb {
			continue
		}
		var seq uint64
		if rec != nil {
			seq = rec.seq
		}
		nr := &record{seq: seq, tomb: true}
		m.putLocked(v, nr)
		m.met.Add(mTombstonesIssued, 1)
		m.floodLocked(v, nr, p.index)
	}
	m.commitLocked()
	m.checkReadyLocked()
}

// resurrectLocked marks a dead peer alive again and re-offers it our
// whole store (tombstones included: sending a node its own obituary is
// what triggers the refutation re-announcement).
func (m *Member) resurrectLocked(p *peerState) {
	if !p.dead {
		return
	}
	p.dead = false
	m.down[p.index].Store(false)
	m.offerStoreLocked(p)
}

// offerStoreLocked anti-entropies the full link-state store to a peer
// that just (re)appeared.
func (m *Member) offerStoreLocked(p *peerState) {
	for v, rec := range m.store {
		m.enqueueLocked(p, wireLSA(v, rec))
	}
}

// helloPass runs one heartbeat round: HELLO every known peer (dead ones
// included — probing the condemned is the rejoin path when the address
// is stable) and every unresolved seed, merge what comes back, then
// sweep for peers that have been silent past the deadline.
func (m *Member) helloPass() {
	type target struct{ addr string }
	m.mu.Lock()
	self := m.selfInfoLocked()
	table := m.tableLocked()
	var targets []target
	for _, row := range table {
		if row.Index != m.cfg.Index && row.Addr != "" {
			targets = append(targets, target{addr: row.Addr})
		}
	}
	for _, s := range m.seeds {
		targets = append(targets, target{addr: s})
	}
	m.mu.Unlock()

	req := &HelloMsg{From: self, Peers: table}
	for _, tg := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.PeerDeadline)
		resp, err := m.tr.Hello(ctx, tg.addr, req)
		cancel()
		m.met.Add(mHelloSent, 1)
		if err != nil {
			m.met.Add(mHelloTimeouts, 1)
			continue
		}
		now := time.Now()
		m.mu.Lock()
		from := resp.From
		if from.Addr == "" {
			from.Addr = tg.addr
		}
		m.mergeDirectLocked(from, now)
		for _, info := range resp.Peers {
			m.mergeGossipLocked(info, now)
		}
		m.mu.Unlock()
	}

	// Failure detection by silence: no successful exchange within
	// DeadAfter condemns the peer.
	now := time.Now()
	m.mu.Lock()
	var silent []*peerState
	for _, p := range m.peers {
		if !p.dead && now.Sub(p.lastSeen) > m.cfg.DeadAfter {
			silent = append(silent, p)
		}
	}
	sort.Slice(silent, func(i, j int) bool { return silent[i].index < silent[j].index })
	for _, p := range silent {
		m.markDeadLocked(p, true)
	}
	m.mu.Unlock()
}

// handleHello serves an inbound heartbeat: merge the sender (direct
// evidence) and its gossip, answer with our table.
func (m *Member) handleHello(req *HelloMsg) *HelloMsg {
	m.met.Add(mHelloRecv, 1)
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeDirectLocked(req.From, now)
	for _, info := range req.Peers {
		m.mergeGossipLocked(info, now)
	}
	return &HelloMsg{From: m.selfInfoLocked(), Peers: m.tableLocked()}
}

// peerAddr resolves a shard index to (addr, dead, known).
func (m *Member) peerAddr(idx int) (string, bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[idx]
	if p == nil || p.addr == "" {
		return "", false, false
	}
	return p.addr, p.dead, true
}
