package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"klocal/internal/graph"
)

// WireLSA is one link-state announcement on the wire: the adjacency of
// a single origin vertex under a supersession sequence number, or its
// tombstone.
type WireLSA struct {
	Origin graph.Vertex   `json:"origin"`
	Seq    uint64         `json:"seq"`
	Adj    []graph.Vertex `json:"adj,omitempty"`
	Tomb   bool           `json:"tomb,omitempty"`
}

// LSABatch carries a sender's due transfers to one peer.
type LSABatch struct {
	From PeerInfo  `json:"from"`
	LSAs []WireLSA `json:"lsas"`
}

// AckRef acknowledges receipt of one announcement.
type AckRef struct {
	Origin graph.Vertex `json:"origin"`
	Seq    uint64       `json:"seq"`
	Tomb   bool         `json:"tomb,omitempty"`
}

// LSAAck is the response to an LSABatch: receipt per announcement, plus
// the receiver's own membership row (an ack is also liveness evidence).
type LSAAck struct {
	From  PeerInfo `json:"from"`
	Acked []AckRef `json:"acked"`
}

// xfer is one reliable transfer owed to a peer: the announcement, how
// many times it has been transmitted, and when it is next due.
type xfer struct {
	l        WireLSA
	attempts int
	due      time.Time
}

// wireLSA renders a stored record for the wire.
func wireLSA(origin graph.Vertex, rec *record) WireLSA {
	return WireLSA{Origin: origin, Seq: rec.seq, Adj: rec.adj, Tomb: rec.tomb}
}

// reOriginateLocked issues a fresh announcement for an owned vertex
// with the next sequence in the current incarnation epoch — the seed
// announcement at boot, and the refutation that beats any tombstone
// issued against an earlier sequence.
func (m *Member) reOriginateLocked(v graph.Vertex) {
	m.seqCount++
	adj, _ := m.ownAdj(v)
	rec := &record{seq: m.seqEpochLocked() | (m.seqCount & 0xffffffff), adj: adj}
	m.putLocked(v, rec)
	m.floodLocked(v, rec, -1)
}

// floodLocked queues an announcement to every live peer except the one
// it arrived from.
func (m *Member) floodLocked(origin graph.Vertex, rec *record, except int) {
	l := wireLSA(origin, rec)
	for idx, p := range m.peers {
		if idx == except || p.dead {
			continue
		}
		m.enqueueLocked(p, l)
	}
}

// enqueueLocked schedules one reliable transfer, replacing any older
// announcement for the same origin still owed to the peer.
func (m *Member) enqueueLocked(p *peerState, l WireLSA) {
	if old, ok := p.pending[l.Origin]; ok {
		if !(&record{seq: old.l.Seq, tomb: old.l.Tomb}).newer(l.Seq, l.Tomb) {
			return // the queued one is at least as new
		}
	}
	p.pending[l.Origin] = &xfer{l: l}
}

// lsaBatchBytes caps the announcements in one batch a member sends, in
// encoded bytes: retryPass starts a new batch for a peer before one
// would grow past it, so a whole store (offered to a peer that just
// appeared) goes out as several batches. An announcement larger than
// the cap goes alone.
const lsaBatchBytes = 64 << 10

// wireLSABytes is the length of l's JSON encoding in a batch, its
// separating comma included.
func wireLSABytes(l *WireLSA) int {
	var digits [20]byte
	n := len(`{"origin":,"seq":},`) +
		len(strconv.AppendInt(digits[:0], int64(l.Origin), 10)) +
		len(strconv.AppendUint(digits[:0], l.Seq, 10))
	if len(l.Adj) > 0 {
		n += len(`,"adj":[]`) + len(l.Adj) - 1
		for _, v := range l.Adj {
			n += len(strconv.AppendInt(digits[:0], int64(v), 10))
		}
	}
	if l.Tomb {
		n += len(`,"tomb":true`)
	}
	return n
}

// retryPass runs one retransmission round at the given instant: every
// due transfer is (re)sent in batches of at most lsaBatchBytes per
// peer, acknowledged entries are cleared, and a transfer that exhausts
// the attempt budget condemns its peer. A failed batch ends the pass's
// exchange with that peer: its later batches wait for their retry, as
// they would have had they shared the failed one, so a peer that stops
// answering costs one PeerDeadline per pass, not one per batch.
func (m *Member) retryPass(now time.Time) {
	type batch struct {
		idx  int
		addr string
		lsas []WireLSA
	}
	m.mu.Lock()
	self := m.selfInfoLocked()
	var batches []batch
	var condemned []*peerState
	for idx, p := range m.peers {
		if p.dead || p.addr == "" || len(p.pending) == 0 {
			continue
		}
		var own []batch // this peer's, in origin order
		size := 0       // of the last one
		exhausted := false
		origins := make([]graph.Vertex, 0, len(p.pending))
		for v := range p.pending {
			origins = append(origins, v)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, v := range origins {
			x := p.pending[v]
			if x.due.After(now) {
				continue
			}
			x.attempts++
			if x.attempts > m.plan.Attempts() {
				exhausted = true
				break
			}
			if x.attempts > 1 {
				m.met.Add(mLSARetransmits, 1)
			}
			x.due = now.Add(m.cfg.RetryBase * time.Duration(m.plan.Backoff(x.attempts)))
			sz := wireLSABytes(&x.l)
			if len(own) == 0 || size+sz > lsaBatchBytes {
				own = append(own, batch{idx: idx, addr: p.addr})
				size = 0
			}
			b := &own[len(own)-1]
			b.lsas = append(b.lsas, x.l)
			size += sz
		}
		if exhausted {
			condemned = append(condemned, p)
			continue
		}
		batches = append(batches, own...)
	}
	sort.Slice(condemned, func(i, j int) bool { return condemned[i].index < condemned[j].index })
	for _, p := range condemned {
		m.markDeadLocked(p, true)
	}
	m.mu.Unlock()

	sort.SliceStable(batches, func(i, j int) bool { return batches[i].idx < batches[j].idx })
	failed := -1 // the peer whose batch failed last
	for _, b := range batches {
		if b.idx == failed {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.PeerDeadline)
		ack, err := m.tr.LSAs(ctx, b.addr, &LSABatch{From: self, LSAs: b.lsas})
		cancel()
		m.met.Add(mLSASent, int64(len(b.lsas)))
		if err != nil {
			failed = b.idx
			continue // the transfers stay pending on their backoff schedule
		}
		now := time.Now()
		m.mu.Lock()
		from := ack.From
		if from.Addr == "" {
			from.Addr = b.addr
		}
		m.mergeDirectLocked(from, now)
		if p := m.peers[b.idx]; p != nil {
			for _, a := range ack.Acked {
				x, ok := p.pending[a.Origin]
				if !ok {
					continue
				}
				// Clear the transfer when the ack covers it (netsim's
				// rule: higher seq, or equal seq unless the queued one
				// is the tombstone and the ack is not).
				if a.Seq > x.l.Seq || (a.Seq == x.l.Seq && (a.Tomb == x.l.Tomb || a.Tomb)) {
					delete(p.pending, a.Origin)
				}
			}
		}
		m.mu.Unlock()
	}
}

// handleLSAs serves an inbound batch: store whatever is newer, flood it
// onward, refute tombstones against our own live origins, and ack
// receipt of everything.
func (m *Member) handleLSAs(batch *LSABatch) *LSAAck {
	m.met.Add(mLSARecv, int64(len(batch.LSAs)))
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	from := batch.From
	m.mergeDirectLocked(from, now)
	ack := &LSAAck{From: m.selfInfoLocked(), Acked: make([]AckRef, 0, len(batch.LSAs))}
	changed := false
	for _, l := range batch.LSAs {
		ack.Acked = append(ack.Acked, AckRef{Origin: l.Origin, Seq: l.Seq, Tomb: l.Tomb})
		rec := m.store[l.Origin]
		if !rec.newer(l.Seq, l.Tomb) {
			continue
		}
		if l.Tomb {
			if _, owned := m.ownAdj(l.Origin); owned {
				// Our own obituary: refute it with a fresh announcement
				// instead of storing it.
				m.met.Add(mTombstonesRefuted, 1)
				m.reOriginateLocked(l.Origin)
				changed = true
				continue
			}
		} else if rec != nil && rec.tomb {
			m.met.Add(mTombstonesRefuted, 1)
		}
		adj := make([]graph.Vertex, len(l.Adj))
		copy(adj, l.Adj)
		m.putLocked(l.Origin, &record{seq: l.Seq, adj: adj, tomb: l.Tomb})
		m.floodLocked(l.Origin, m.store[l.Origin], from.Index)
		changed = true
	}
	if changed {
		m.commitLocked()
		m.checkReadyLocked()
	}
	return ack
}

// Converge settles an unstarted (loop-transport) cluster determin-
// istically: members run hello and retransmission passes in index
// order until no reliable transfer is outstanding and every member is
// ready. It replaces the background loops in the klocalcheck
// differential and in unit tests, where wall-clock pacing would only
// add nondeterminism.
func Converge(members []*Member, maxRounds int) error {
	if maxRounds <= 0 {
		maxRounds = 4 * (len(members) + 2)
	}
	// A virtual clock that jumps a full hour per round: every backoff
	// schedule (capped far below an hour) has elapsed by the next round,
	// so each round retransmits everything still owed.
	base := time.Now()
	for r := 0; r < maxRounds; r++ {
		for _, m := range members {
			m.helloPass()
		}
		now := base.Add(time.Duration(r+1) * time.Hour)
		for _, m := range members {
			m.retryPass(now)
		}
		settled := true
		for _, m := range members {
			if m.pendingCount() > 0 || !m.Ready() {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
	}
	pend := make([]int, len(members))
	for i, m := range members {
		pend[i] = m.pendingCount()
	}
	return fmt.Errorf("cluster: discovery did not converge in %d rounds (pending %v)", maxRounds, pend)
}
