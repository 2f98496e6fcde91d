// Package simnet is a deterministic discrete-event network simulator for
// exercising Treedoc replicas under realistic distribution: random message
// latency (hence reordering), site-to-site partitions, and healing. The
// paper's replicas "synchronise only in the background" (Section 6); simnet
// provides that background with a virtual clock so tests and benchmarks are
// reproducible.
//
// Messages between partitioned sites are held and delivered after healing,
// modelling the paper's disconnected-operation setting rather than loss:
// "Eventually, every site executes every action" (Section 1).
//
// Two fault injectors live here, one per plane:
//
//   - Network: the in-process discrete-event simulator above, for
//     deterministic unit tests and benchmarks (Partition/Heal hold and
//     release messages; latency is a seeded uniform draw on a virtual
//     clock).
//   - Proxy: a real-TCP byte proxy for multi-process harnesses
//     (cmd/treedoc-load), fronting a live listener so chaos scenarios can
//     sever and delay actual connections. Unlike Network it models the
//     operator-visible failure: partitions kill connections instead of
//     buffering messages, and recovery relies on the transport's own
//     reconnect and anti-entropy.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"

	"github.com/treedoc/treedoc/internal/ident"
)

// Envelope is a message in flight.
type Envelope struct {
	From, To ident.SiteID
	Payload  any
	// SendAt and DeliverAt are virtual-clock times in milliseconds.
	SendAt, DeliverAt int64
	seq               uint64 // tiebreak for deterministic ordering
}

// Config parameterises the simulated network.
type Config struct {
	// MinLatency and MaxLatency bound the uniform random delivery delay in
	// virtual milliseconds. Defaults: 5 and 50.
	MinLatency, MaxLatency int64
	// Loss is the probability (0..1) that a lossy message is silently
	// dropped at send time. Only payloads implementing Lossy() true are
	// affected: operation gossip is lossy and recovered by anti-entropy,
	// while protocol traffic (digests, flatten acks) models a reliable
	// channel.
	Loss float64
	// Seed drives the latency and loss randomness; 0 means 1.
	Seed int64
}

// LossyPayload marks payloads that the network may drop. Payloads without
// the marker (or returning false) are delivered reliably.
type LossyPayload interface {
	Lossy() bool
}

// Network is the simulator. Not safe for concurrent use: the discrete-event
// loop is single-threaded by design, which is what makes runs reproducible.
type Network struct {
	cfg  Config
	now  int64
	rng  *rand.Rand
	next uint64

	inFlight envHeap
	// held buffers messages between partitioned sites until healing.
	held []*Envelope
	cut  map[[2]ident.SiteID]bool

	sent, delivered, dropped uint64
}

// New creates a network.
func New(cfg Config) *Network {
	if cfg.MinLatency == 0 && cfg.MaxLatency == 0 {
		cfg.MinLatency, cfg.MaxLatency = 5, 50
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Network{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cut: make(map[[2]ident.SiteID]bool),
	}
}

// Now returns the virtual time in milliseconds.
func (n *Network) Now() int64 { return n.now }

// Stats returns total sent and delivered message counts.
func (n *Network) Stats() (sent, delivered uint64) { return n.sent, n.delivered }

// Dropped returns the number of messages lost to simulated loss.
func (n *Network) Dropped() uint64 { return n.dropped }

// latency draws a delivery delay.
func (n *Network) latency() int64 {
	span := n.cfg.MaxLatency - n.cfg.MinLatency
	if span <= 0 {
		return n.cfg.MinLatency
	}
	return n.cfg.MinLatency + n.rng.Int63n(span+1)
}

func pairKey(a, b ident.SiteID) [2]ident.SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]ident.SiteID{a, b}
}

// Partition severs the link between two sites; messages between them are
// held until Heal. Partitioning a site from itself is rejected.
func (n *Network) Partition(a, b ident.SiteID) error {
	if a == b {
		return fmt.Errorf("simnet: cannot partition a site from itself")
	}
	n.cut[pairKey(a, b)] = true
	// In-flight messages across the cut stall too.
	var keep envHeap
	for _, e := range n.inFlight {
		if n.cut[pairKey(e.From, e.To)] {
			n.held = append(n.held, e)
		} else {
			keep = append(keep, e)
		}
	}
	heap.Init(&keep)
	n.inFlight = keep
	return nil
}

// Heal removes the partition between two sites and schedules held traffic.
func (n *Network) Heal(a, b ident.SiteID) {
	delete(n.cut, pairKey(a, b))
	var still []*Envelope
	for _, e := range n.held {
		if n.cut[pairKey(e.From, e.To)] {
			still = append(still, e)
			continue
		}
		e.DeliverAt = n.now + n.latency()
		heap.Push(&n.inFlight, e)
	}
	n.held = still
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	for k := range n.cut {
		delete(n.cut, k)
	}
	for _, e := range n.held {
		e.DeliverAt = n.now + n.latency()
		heap.Push(&n.inFlight, e)
	}
	n.held = nil
}

// Send enqueues a message. Between partitioned sites it is held for
// delivery after healing. Lossy payloads may be dropped silently.
func (n *Network) Send(from, to ident.SiteID, payload any) {
	n.sent++
	if n.cfg.Loss > 0 {
		if lp, ok := payload.(LossyPayload); ok && lp.Lossy() && n.rng.Float64() < n.cfg.Loss {
			n.dropped++
			return
		}
	}
	n.next++
	e := &Envelope{From: from, To: to, Payload: payload, SendAt: n.now, seq: n.next}
	if n.cut[pairKey(from, to)] {
		n.held = append(n.held, e)
		return
	}
	e.DeliverAt = n.now + n.latency()
	heap.Push(&n.inFlight, e)
}

// DeliverNext advances the virtual clock to the earliest in-flight message
// and returns it. ok is false when nothing is in flight (held partition
// traffic does not count).
func (n *Network) DeliverNext() (Envelope, bool) {
	if n.inFlight.Len() == 0 {
		return Envelope{}, false
	}
	e := heap.Pop(&n.inFlight).(*Envelope)
	if e.DeliverAt > n.now {
		n.now = e.DeliverAt
	}
	n.delivered++
	return *e, true
}

// NextAt returns the delivery time of the earliest in-flight message; ok is
// false when nothing is in flight.
func (n *Network) NextAt() (at int64, ok bool) {
	if n.inFlight.Len() == 0 {
		return 0, false
	}
	return n.inFlight[0].DeliverAt, true
}

// AdvanceTo moves the virtual clock forward to t without delivering
// anything: a driver with timers of its own (periodic ticks) uses it to
// fire them at their own instants, between deliveries or on an idle
// network. The clock never moves backwards.
func (n *Network) AdvanceTo(t int64) {
	if t > n.now {
		n.now = t
	}
}

// InFlight returns the number of undelivered, unheld messages.
func (n *Network) InFlight() int { return n.inFlight.Len() }

// Held returns the number of messages stalled behind partitions.
func (n *Network) Held() int { return len(n.held) }

// envHeap orders envelopes by delivery time, then send order.
type envHeap []*Envelope

func (h envHeap) Len() int { return len(h) }
func (h envHeap) Less(i, j int) bool {
	if h[i].DeliverAt != h[j].DeliverAt {
		return h[i].DeliverAt < h[j].DeliverAt
	}
	return h[i].seq < h[j].seq
}
func (h envHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *envHeap) Push(x any)   { *h = append(*h, x.(*Envelope)) }
func (h *envHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
