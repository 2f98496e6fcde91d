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
	"fmt"

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

// Buffer implements causal delivery for one replica. The zero value is not
// usable; call NewBuffer. Not safe for concurrent use.
type Buffer struct {
	site      ident.SiteID
	delivered vclock.VC
	pending   []Message
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
func (b *Buffer) Pending() int { return len(b.pending) }

// Prune discards buffered undeliverable messages beyond max, oldest first,
// and returns how many were dropped. A transport calls it to bound the
// memory a hostile or broken peer can pin with wire-valid messages whose
// causal dependencies never arrive; legitimate pruned messages are
// recovered by anti-entropy retransmission.
func (b *Buffer) Prune(max int) int {
	if max < 0 {
		max = 0
	}
	n := len(b.pending) - max
	if n <= 0 {
		return 0
	}
	b.pending = append(b.pending[:0], b.pending[n:]...)
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
// in for), repeating until a pass delivers nothing.
func (b *Buffer) drain() []Message {
	var out []Message
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(b.pending); i++ {
			p := b.pending[i]
			if p.TS.Get(p.From) <= b.delivered.Get(p.From) {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				i--
				continue
			}
			if !b.deliverable(p) {
				continue
			}
			b.delivered.Merge(p.TS)
			out = append(out, p)
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			i--
			progress = true
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
	seq := m.TS.Get(m.From)
	if seq == 0 {
		return nil, fmt.Errorf("causal: message from s%d without own timestamp", m.From)
	}
	if m.From == b.site || seq <= b.delivered.Get(m.From) {
		return nil, nil // own or already-delivered message
	}
	for _, p := range b.pending {
		if p.From == m.From && p.TS.Get(p.From) == seq {
			return nil, nil // already buffered
		}
	}
	b.pending = append(b.pending, m)
	return b.drain(), nil
}
