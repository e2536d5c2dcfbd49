// Package fault injects deterministic, seeded link and node faults into
// the network simulator. The paper's model assumes every node reliably
// learns its k-neighbourhood before routing; this package supplies the
// adversarial physical layer that assumption hides — probabilistic
// message loss, duplication, bounded delay/reorder, per-link blackout
// windows, and node crashes with optional restart — so the discovery and
// routing protocols can be exercised under the conditions an ad hoc
// network actually presents.
//
// All randomness is counter-based: each decision is a pure hash of the
// plan seed and the transmission's identity (link, traffic class,
// message key, attempt number), never of a shared mutable RNG. Fault
// decisions are therefore reproducible from the seed alone, independent
// of goroutine scheduling.
package fault

import (
	"fmt"

	"klocal/internal/graph"
)

// Class labels the traffic class of a transmission, letting an injector
// discriminate between discovery floods, acknowledgments, and routed
// data.
type Class int

const (
	// ClassLSA is a link-state announcement (discovery flood).
	ClassLSA Class = iota
	// ClassAck is a discovery acknowledgment.
	ClassAck
	// ClassData is a routed data message.
	ClassData
)

func (c Class) String() string {
	switch c {
	case ClassLSA:
		return "lsa"
	case ClassAck:
		return "ack"
	case ClassData:
		return "data"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Decision is the fate of one transmission attempt.
type Decision struct {
	// Drop discards the message; the link layer sees no delivery and no
	// acknowledgment.
	Drop bool
	// Duplicate enqueues a second copy (receivers dedup by sequence).
	Duplicate bool
	// Delay sends the message to the back of the delivery queue this many
	// more times, reordering it behind later traffic.
	Delay int
}

// Injector decides the fate of every link transmission and the liveness
// of every node. Implementations must be safe for concurrent use and —
// for reproducibility — should derive decisions only from their
// configuration and the arguments, never from call order.
type Injector interface {
	// Deliver rules on one transmission attempt of a message identified
	// by key on link from→to. attempt is 1-based; round is the logical
	// discovery round at transmission time.
	Deliver(from, to graph.Vertex, class Class, key uint64, attempt, round int) Decision
	// Down reports whether node v is crashed at the given round. A down
	// node neither sends, receives, nor processes.
	Down(v graph.Vertex, round int) bool
	// Enabled reports whether the injector can ever perturb traffic or
	// liveness. A disabled injector lets the simulator skip fault
	// bookkeeping entirely.
	Enabled() bool
}

// Blackout silences the link {U, V} in both directions during rounds
// [From, To).
type Blackout struct {
	U, V     graph.Vertex
	From, To int
}

// Crash takes Node down for rounds [From, To). To <= 0 means the crash
// is permanent. A node that restarts (round >= To) rejoins with its
// stable storage intact (link-state sequence numbers and learned
// records survive, as in crash-recovery with persistent state).
type Crash struct {
	Node     graph.Vertex
	From, To int
}

// Plan is a reproducible fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// Loss is the independent per-attempt drop probability applied to
	// every link transmission (LSAs, acks, and data alike).
	Loss float64
	// Dup is the probability a delivered control message is duplicated.
	Dup float64
	// MaxDelay bounds fault-injected reordering: a delivered control
	// message goes back to the tail of the simulator's delivery queue a
	// uniform number of times in [0, MaxDelay], so later traffic
	// overtakes it. On the data path a delay shows only as a trace event.
	MaxDelay int
	// Blackouts are per-link outage windows.
	Blackouts []Blackout
	// Crashes are node-level faults.
	Crashes []Crash
	// MaxAttempts bounds transmissions per reliable transfer (first send
	// plus retransmits) before the peer is declared dead. 0 means the
	// default (12).
	MaxAttempts int
	// BackoffCap caps the exponential retransmit backoff, in rounds.
	// 0 means the default (8).
	BackoffCap int
}

// DefaultMaxAttempts and DefaultBackoffCap govern the reliable-transfer
// retry schedule when the plan leaves them zero. Twelve attempts drive
// the per-transfer failure probability below 4e-9 at 20% loss.
const (
	DefaultMaxAttempts = 12
	DefaultBackoffCap  = 8
)

// Attempts returns the plan's retransmit budget with defaults applied.
func (p Plan) Attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

// Backoff returns the retry delay in rounds after the given 1-based
// attempt: exponential, capped by the plan's BackoffCap.
func (p Plan) Backoff(attempt int) int {
	cap := p.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := 1
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// Zero reports whether the plan injects no faults at all (retry tuning
// aside), so the simulator behaves exactly like a perfect network.
func (p Plan) Zero() bool {
	return p.Loss == 0 && p.Dup == 0 && p.MaxDelay == 0 &&
		len(p.Blackouts) == 0 && len(p.Crashes) == 0
}

// LastScheduledRound returns the largest round at which the plan changes
// network state (blackout or crash boundaries); discovery must keep
// settling at least until then.
func (p Plan) LastScheduledRound() int {
	last := 0
	for _, b := range p.Blackouts {
		if b.To > last {
			last = b.To
		}
	}
	for _, c := range p.Crashes {
		if c.From > last {
			last = c.From
		}
		if c.To > last {
			last = c.To
		}
	}
	return last
}

// Compile builds the injector realizing the plan.
func Compile(p Plan) Injector {
	if p.Zero() {
		return nopInjector{}
	}
	return &planInjector{plan: p}
}

// nopInjector delivers everything and crashes nothing.
type nopInjector struct{}

func (nopInjector) Deliver(_, _ graph.Vertex, _ Class, _ uint64, _, _ int) Decision {
	return Decision{}
}
func (nopInjector) Down(graph.Vertex, int) bool { return false }
func (nopInjector) Enabled() bool               { return false }

// planInjector realizes a Plan with counter-based hashing.
type planInjector struct {
	plan Plan
}

func (in *planInjector) Enabled() bool { return true }

func (in *planInjector) Down(v graph.Vertex, round int) bool {
	for _, c := range in.plan.Crashes {
		if c.Node != v {
			continue
		}
		if round >= c.From && (c.To <= 0 || round < c.To) {
			return true
		}
	}
	return false
}

func (in *planInjector) blackout(u, v graph.Vertex, round int) bool {
	for _, b := range in.plan.Blackouts {
		onLink := (b.U == u && b.V == v) || (b.U == v && b.V == u)
		if onLink && round >= b.From && round < b.To {
			return true
		}
	}
	return false
}

func (in *planInjector) Deliver(from, to graph.Vertex, class Class, key uint64, attempt, round int) Decision {
	if in.blackout(from, to, round) {
		return Decision{Drop: true}
	}
	var d Decision
	if in.plan.Loss > 0 &&
		in.uniform(1, uint64(from), uint64(to), uint64(class), key, uint64(attempt)) < in.plan.Loss {
		d.Drop = true
		return d
	}
	if in.plan.Dup > 0 && class != ClassData &&
		in.uniform(2, uint64(from), uint64(to), uint64(class), key, uint64(attempt)) < in.plan.Dup {
		d.Duplicate = true
	}
	if in.plan.MaxDelay > 0 {
		r := in.hash(3, uint64(from), uint64(to), uint64(class), key, uint64(attempt))
		d.Delay = int(r % uint64(in.plan.MaxDelay+1))
	}
	return d
}

// hash folds the tag and parts into one splitmix64-style digest.
func (in *planInjector) hash(tag uint64, parts ...uint64) uint64 {
	h := in.plan.Seed ^ (tag * 0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix64(h)
	}
	return h
}

// uniform maps the digest to [0, 1).
func (in *planInjector) uniform(tag uint64, parts ...uint64) float64 {
	return float64(in.hash(tag, parts...)>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Event records one fault occurrence on the data path, for hop traces.
type Event struct {
	// Kind is one of "drop", "dup", "delay", "retransmit", "node-down".
	Kind     string
	From, To graph.Vertex
	// Hop is the 0-based index into the route at which the event fired.
	Hop     int
	Attempt int
}

func (e Event) String() string {
	return fmt.Sprintf("hop %d: %s %d->%d (attempt %d)", e.Hop, e.Kind, e.From, e.To, e.Attempt)
}
