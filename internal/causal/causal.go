// Package causal implements causal broadcast delivery: operations are
// buffered until every operation that happened-before them has been
// delivered. This is the replay contract the Treedoc CRDT requires:
// "Updates received from remote sites may be replayed as soon as received,
// as long as happened-before order is satisfied" (Section 2.2).
//
// The implementation is the classic vector-clock causal broadcast: a
// message from site s carrying timestamp T is deliverable at a replica with
// clock V when V[s] = T[s]-1 (it is the next message from s) and V[k] ≥ T[k]
// for every other site k (all its causal dependencies are in).
package causal

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Message is a causally-timestamped broadcast payload.
type Message struct {
	From ident.SiteID
	// TS is the sender's vector clock after ticking its own entry for this
	// message: TS[From] is the message's sequence number, the other entries
	// its causal dependencies.
	TS      vclock.VC
	Payload any
}

// seq is the message's sequence number at its sender.
func (m Message) seq() uint64 { return m.TS.Get(m.From) }

// Buffer implements causal delivery for one replica. The zero value is not
// usable; call NewBuffer. Not safe for concurrent use.
//
// Buffered messages wait in one queue per sender, ordered by sequence
// number. Only a queue's head can be the sender's next message, so a
// delivery pass tests one message per sender, and between passes no head
// is deliverable or covered by the delivered clock.
type Buffer struct {
	site      ident.SiteID
	delivered vclock.VC
	// queues is ordered by site. A queue that drain empties stays, keeping
	// its array for the sender's next gap; Prune sheds the empty ones.
	queues  []queue
	pending int
}

// queue is one sender's buffered messages, ascending by sequence number.
type queue struct {
	site ident.SiteID
	msgs []Message
}

// NewBuffer creates a delivery buffer for the given site.
func NewBuffer(site ident.SiteID) *Buffer {
	return &Buffer{site: site, delivered: vclock.New()}
}

// Stamp timestamps an outgoing local broadcast: it ticks the local entry
// and returns the message to send. Local messages count as delivered
// immediately (a replica has, by definition, seen its own operations).
func (b *Buffer) Stamp(payload any) Message {
	b.delivered.Tick(b.site)
	return Message{From: b.site, TS: b.delivered.Clone(), Payload: payload}
}

// Clock returns a copy of the delivered vector clock.
func (b *Buffer) Clock() vclock.VC { return b.delivered.Clone() }

// Pending returns the number of buffered undeliverable messages.
func (b *Buffer) Pending() int { return b.pending }

// Prune discards buffered undeliverable messages beyond limit and returns
// how many were dropped. The highest sequence numbers go first, each the
// tail of its sender's queue and the furthest from delivery, so what
// survives is what the next retransmission can unblock. Each drop scans
// the queue tails once, as each Add's delivery pass scans the heads. A
// transport calls it to bound the memory a hostile or broken peer can pin
// with wire-valid messages whose causal dependencies never arrive;
// legitimate pruned messages are recovered by anti-entropy retransmission.
func (b *Buffer) Prune(limit int) int {
	n := b.pending - max(limit, 0)
	if n <= 0 {
		return 0
	}
	for range n {
		top, seq := 0, uint64(0)
		for i, q := range b.queues {
			if len(q.msgs) > 0 && q.msgs[len(q.msgs)-1].seq() > seq {
				top, seq = i, q.msgs[len(q.msgs)-1].seq()
			}
		}
		q := &b.queues[top]
		q.msgs[len(q.msgs)-1] = Message{}
		q.msgs = q.msgs[:len(q.msgs)-1]
	}
	b.pending -= n
	b.queues = slices.DeleteFunc(b.queues, func(q queue) bool { return len(q.msgs) == 0 })
	return n
}

// Advance raises the delivered clock to cover vc (pointwise maximum) and
// returns any buffered messages that become deliverable, in causal order.
// A transport calls it after installing a state snapshot: the snapshot's
// version vector stands in for the messages it contains, so everything at
// or below it counts as delivered and buffered successors may now flow.
func (b *Buffer) Advance(vc vclock.VC) []Message {
	b.delivered.Merge(vc)
	return b.drain()
}

// drain delivers every buffered message that has become deliverable, in
// causal order, and drops the ones the delivered clock already covers (a
// duplicate that went stale while buffered, or a message a snapshot stood
// in for). Each pass tests only the queue heads, in site order; it repeats
// until a pass delivers nothing, since a delivery from one sender may be
// the dependency another's head waits on.
func (b *Buffer) drain() []Message {
	var out []Message
	for progress := b.pending > 0; progress; {
		progress = false
		for i := range b.queues {
			q := &b.queues[i]
			k := 0
			for ; k < len(q.msgs); k++ {
				h := q.msgs[k]
				if h.seq() <= b.delivered.Get(q.site) {
					continue // covered: dropped
				}
				if !b.deliverable(h) {
					break
				}
				b.delivered.Merge(h.TS)
				out = append(out, h)
				progress = true
			}
			q.msgs = slices.Delete(q.msgs, 0, k) // clears what it vacates: no payload stays pinned
			b.pending -= k
		}
	}
	return out
}

// deliverable reports whether m can be delivered now.
func (b *Buffer) deliverable(m Message) bool {
	for s, n := range m.TS {
		if s == m.From {
			if b.delivered.Get(s)+1 != n {
				return false
			}
			continue
		}
		if b.delivered.Get(s) < n {
			return false
		}
	}
	return true
}

// Add ingests a received message and returns every message that becomes
// deliverable, in causal order. Duplicate and own messages are dropped — a
// duplicate of a message still buffered too, or every retransmission
// answering a replica stuck behind a causal gap would grow the backlog
// until Prune shed legitimate messages.
func (b *Buffer) Add(m Message) ([]Message, error) {
	if m.From == 0 {
		return nil, fmt.Errorf("causal: message without sender")
	}
	seq := m.seq()
	if seq == 0 {
		return nil, fmt.Errorf("causal: message from s%d without own timestamp", m.From)
	}
	if m.From == b.site || seq <= b.delivered.Get(m.From) {
		return nil, nil // own or already-delivered message
	}
	i, found := slices.BinarySearchFunc(b.queues, m.From, func(q queue, s ident.SiteID) int { return cmp.Compare(q.site, s) })
	if !found {
		b.queues = slices.Insert(b.queues, i, queue{site: m.From})
	}
	q := &b.queues[i]
	if len(q.msgs) == 0 && b.deliverable(m) { // the common case: the sender's next message
		b.delivered.Merge(m.TS)
		return append([]Message{m}, b.drain()...), nil
	}
	j, dup := slices.BinarySearchFunc(q.msgs, seq, func(p Message, seq uint64) int { return cmp.Compare(p.seq(), seq) })
	if dup {
		return nil, nil // already buffered
	}
	q.msgs = slices.Insert(q.msgs, j, m)
	b.pending++
	if j > 0 {
		return nil, nil // behind the sender's buffered head: no head changed
	}
	return b.drain(), nil
}
