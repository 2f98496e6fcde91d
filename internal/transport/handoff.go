package transport

// Live resharding: epoch-versioned ring membership, hub-to-hub forwarding,
// and online document handoff.
//
// The hub tier was the only static piece of the system — the paper's
// replicas join and leave freely, and the original shard ring was fixed
// flag config. This file makes the serving layer dynamic:
//
//   - A ring is adopted with ConfigureRing (or a kindRingAnnounce from a
//     peer); higher epoch wins. The deterministic diff (shardmap.Moved)
//     tells every hub which local documents the change relocates.
//   - Each relocated document is handed off at adoption: kindHandoffBegin
//     tells the new owner to bring up its archivist, every attached client
//     is re-pointed with an epoch-stamped unsolicited redirect, forward
//     mode serves stragglers, and the ownership callback releases the
//     local archivist. No state travels with the handoff: a handoff is a
//     late join. The new owner's archivist catches up by digest like any
//     joiner — from the clients, and from the old archivist, whose link is
//     re-pointed with them — and the old archivist keeps serving until the
//     new one has acknowledged everything it held (cmd/treedoc-serve).
//   - Hubs keep persistent mesh connections (hubPeer) to other ring
//     members: ring announces, Begins and the kindForward envelope travel
//     over them. Forward mode serves a foreign document to clients that
//     cannot reach its owner shard: local frames are relayed locally and
//     forwarded to the owner; the mesh connection subscribes to the
//     document at the owner so its traffic flows back.
//
// A frame received as kindForward is never re-forwarded, so hubs with
// disagreeing rings cannot loop frames; the disagreeing hub is answered
// with a ring announce instead.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/treedoc/treedoc/internal/transport/shardmap"
)

// meshDialTimeout bounds dialing a peer hub.
const meshDialTimeout = 5 * time.Second

// errStaleEpoch marks a ConfigureRing refusal because the offered epoch
// is not above the installed one — the one failure mode callers may
// meaningfully retry with a fresher epoch.
var errStaleEpoch = errors.New("transport: ring epoch not above current")

// ConfigureRing adopts an epoch-versioned ring: self is this hub's
// advertised address (it may be absent from the ring — a resigning hub
// owns nothing afterwards) and ring the full membership. A ring whose
// epoch is not above the current one is refused (same epoch: no-op, so
// repeated announces are idempotent). The new ring is announced to every
// mesh peer and every connection, and every local document the membership
// change relocates is handed off before ConfigureRing returns: a Begin to
// the new owner, an epoch-stamped redirect to each attached client,
// forward mode for clients that stay, and the release callback — all
// lossy offers, so nothing here waits on a peer.
func (h *Hub) ConfigureRing(self string, ring *shardmap.Ring) error {
	if ring == nil || ring.Epoch == 0 {
		return fmt.Errorf("transport: nil or epoch-0 ring")
	}
	if self == "" {
		return &net.AddrError{Err: "hub has no advertised self address", Addr: self}
	}
	var outs []moveOut
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("transport: hub closed")
	}
	old := h.ring
	if old != nil && ring.Epoch <= old.Epoch {
		h.mu.Unlock()
		if ring.Epoch == old.Epoch {
			return nil
		}
		return fmt.Errorf("%w (%d vs %d)", errStaleEpoch, ring.Epoch, old.Epoch)
	}
	h.ring, h.self = ring, self
	h.publishRingView()
	// The deterministic diff bounds the scan: only documents inside a
	// moved arc can have changed owner, and every hub and client diffing
	// the same pair of rings computes the same arcs.
	var arcs []shardmap.Arc
	if old != nil {
		arcs = shardmap.Moved(old, ring)
	}
	ownedBefore := func(doc string) bool {
		if old == nil {
			return true // no ring: this hub owned every document
		}
		return old.Owner(doc) == self
	}
	var gained []string
	for doc, s := range h.shards {
		if old != nil && !shardmap.Contains(arcs, doc) {
			// The arc diff says this document did not change owner.
			continue
		}
		owner := ring.Owner(doc)
		if owner == self {
			// Ours now (newly or still): authoritative, no forwarding. A
			// previous forward-mode subscription is detached, or the old
			// owner would keep relaying every straggler frame here twice.
			if old := s.fwd.Swap(nil); old != nil {
				old.unsubscribe(doc)
			}
			if !ownedBefore(doc) {
				// Acquisition keys off ring adoption, not just the old
				// owner's kindHandoffBegin: if the old owner crashed or its
				// Begin was shed, this hub still brings up an archivist for
				// the served document.
				gained = append(gained, doc)
			}
			continue
		}
		if ownedBefore(doc) && s.fwd.Load() == nil {
			m := moveOut{doc: doc, to: owner, s: s}
			if snap := s.snap.Load(); snap != nil {
				m.attached = *snap
			}
			outs = append(outs, m)
		}
		// Foreign now: forward mode towards the owner for whoever stays
		// (clients mid-migration, clients that cannot reach the owner).
		h.retargetLocked(doc, s, owner)
	}
	conns := make([]*hubConn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	mesh := make(map[string]*hubPeer)
	for _, n := range ring.Nodes {
		if p := h.peerLocked(n); p != nil {
			mesh[n] = p
		}
	}
	h.mu.Unlock()

	// The ring rides ahead of each Begin on the same mesh FIFO: a receiver
	// still on the old epoch would refuse the Begin as not its document.
	if ann, err := encodeRing(ring); err == nil {
		for _, p := range mesh {
			p.offer(ann)
		}
		for _, c := range conns {
			h.offerTo(nil, c, ann)
		}
	}
	h.logf("hub: adopted ring epoch %d (%d nodes, self %s): %d documents moving off this hub, %d gained",
		ring.Epoch, len(ring.Nodes), self, len(outs), len(gained))
	if h.ownership != nil {
		for _, doc := range gained {
			h.ownership(doc, ring.Epoch, true)
		}
	}
	for _, m := range outs {
		h.handOff(m, ring.Epoch, mesh[m.to])
	}
	return nil
}

// moveOut is one local document a ring change moves to another hub: its
// relay group and the clients attached to it at adoption.
type moveOut struct {
	doc, to  string
	s        *docShard
	attached []*hubConn
}

// handOff moves one document off this hub: Begin to the new owner (p, nil
// when it cannot be dialed), an epoch-stamped redirect to every attached
// client, then the release callback. A shed Begin or redirect costs no
// op: the old archivist keeps serving until the new owner's archivist has
// acknowledged what it held, and a client left behind is forwarded.
func (h *Hub) handOff(m moveOut, epoch uint64, p *hubPeer) {
	doc, to := m.doc, m.to
	h.handoffsOut.Add(1)
	if begin, err := encodeFrame(kindHandoffBegin, &HandoffBeginFrame{Doc: doc, Epoch: epoch}); err == nil && (p == nil || !p.offer(begin)) {
		h.logf("hub: handoff of doc %q to %s (epoch %d): Begin not queued; the old archivist keeps serving until the new owner runs one", doc, to, epoch)
	}
	if resp, err := encodeFrame(kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: doc, Redirect: to, Epoch: epoch}}}); err == nil {
		for _, c := range m.attached {
			h.offerTo(m.s, c, resp)
		}
	}
	if h.ownership != nil {
		h.ownership(doc, epoch, false)
	}
	h.logf("hub: handed doc %q to %s at epoch %d (%d clients re-pointed)", doc, to, epoch, len(m.attached))
}

// Resign removes this hub from the ring: it installs and announces the
// membership without itself at the next epoch (mintRing: a racing announce
// that still names this hub is minted over, not mistaken for success),
// which hands off every owned document with a local relay group before it
// returns. The hub keeps relaying afterwards — remaining clients are
// served through forward mode — but owns no documents.
func (h *Hub) Resign() error {
	view := h.ringView.Load()
	ring, self := view.ring, view.self
	if ring == nil || self == "" {
		return fmt.Errorf("transport: hub has no ring to resign from")
	}
	// Resigning from a single-node ring leaves no nodes, which is no ring:
	// the mint fails.
	return h.mintRing(self, "", 0, func(cur []string) []string {
		return slices.DeleteFunc(slices.Clone(cur), func(n string) bool { return n == self })
	})
}

// encodeRing encodes a ring as the kindRingAnnounce frame announcing it.
func encodeRing(ring *shardmap.Ring) ([]byte, error) {
	return encodeFrame(kindRingAnnounce, &RingFrame{Epoch: ring.Epoch, Nodes: ring.Nodes})
}

// ringAnnounce returns the frame announcing the installed ring, nil when
// there is none.
func (h *Hub) ringAnnounce() []byte {
	if ring := h.Ring(); ring != nil {
		if ann, err := encodeRing(ring); err == nil {
			return ann
		}
	}
	return nil
}

// handleRingFrame answers ring queries and adopts announces with a higher
// epoch.
func (h *Hub) handleRingFrame(c *hubConn, rf *RingFrame) {
	if rf.IsQuery() {
		h.mu.Lock()
		ring, self := h.ring, h.self
		h.mu.Unlock()
		var resp []byte
		var err error
		switch {
		case ring != nil:
			resp, err = encodeRing(ring)
		case self != "":
			// No ring yet: a single-hub deployment answers epoch 0 with just
			// itself, which a joiner turns into the epoch-1 two-node ring.
			resp, err = encodeFrame(kindRingAnnounce, &RingFrame{Nodes: []string{self}})
		default:
			h.logf("hub: client %d queried the ring but this hub has no advertised self address", c.id)
			return
		}
		if err != nil {
			return
		}
		c.put(resp, nil)
		return
	}
	h.adoptAnnouncedRing(rf, c.conn.RemoteAddr().String())
	// A stale announce (the sender is behind) is answered with the newer
	// ring: announces gossip both ways, so a hub that missed an epoch
	// heals on its next announce instead of waiting for an operator.
	if cur := h.Ring(); cur != nil && rf.Epoch < cur.Epoch {
		h.sendRingCorrection(c)
	}
}

// sendRingCorrection pushes the current ring to a connection whose view
// is behind, at most once per second per connection: a busy stale sender
// must not be corrected per frame.
func (h *Hub) sendRingCorrection(c *hubConn) {
	now := time.Now().UnixNano()
	if last := c.lastRingCorrect.Load(); now-last < int64(time.Second) || !c.lastRingCorrect.CompareAndSwap(last, now) {
		return
	}
	if ann := h.ringAnnounce(); ann != nil {
		h.offerTo(nil, c, ann)
	}
}

// adoptAnnouncedRing installs an announced ring when its epoch is above
// the current one. Continuity is required: an announced ring must keep at
// least one current member (or, when no ring is configured yet, must
// include this hub), so an announce from an unrelated cluster — or one
// that would silently replace the whole membership — is refused rather
// than adopted. This is configuration hygiene, not authentication: the
// wire carries no credentials anywhere in this stack, so hubs and
// clients must share one trust domain (see docs/ARCHITECTURE.md §8).
func (h *Hub) adoptAnnouncedRing(rf *RingFrame, from string) {
	h.mu.Lock()
	self, cur := h.self, h.ring
	h.mu.Unlock()
	if self == "" {
		h.logf("hub: ignoring ring announce epoch %d from %s: no advertised self address", rf.Epoch, from)
		return
	}
	if cur != nil && rf.Epoch <= cur.Epoch {
		return
	}
	ring, err := shardmap.NewRing(rf.Epoch, rf.Nodes)
	if err != nil {
		h.logf("hub: refusing announced ring epoch %d from %s: %v", rf.Epoch, from, err)
		return
	}
	continuous := false
	if cur == nil {
		continuous = ring.Has(self)
	} else {
		for _, n := range cur.Nodes {
			if ring.Has(n) {
				continuous = true
				break
			}
		}
	}
	if !continuous {
		h.logf("hub: refusing announced ring epoch %d from %s: no membership continuity with the current ring", rf.Epoch, from)
		return
	}
	if err := h.ConfigureRing(self, ring); err != nil {
		// A racing adoption of an equal-or-higher epoch: benign.
		h.logf("hub: announced ring epoch %d from %s not adopted: %v", rf.Epoch, from, err)
		return
	}
	h.logf("hub: adopted ring epoch %d announced by %s", rf.Epoch, from)
}

// handleForward relays one hub-to-hub envelope's frame — a client frame
// forwarded in forward mode — to the local relay group (never onward — that is what makes ring disagreement
// loop-free); a forward for a document this hub does not own is answered
// with the current ring so the stale sender re-points.
func (h *Hub) handleForward(c *hubConn, doc string, inner []byte) {
	if _, owned := h.DocOwner(doc); !owned {
		h.sendRingCorrection(c)
	}
	h.relayLocal(c, doc, inner, nil)
}

// handleHandoffBegin is the acquisition signal for a document this hub
// may hold no relay group for: the ownership callback starts its
// archivist, which catches up by digest like any late joiner. A handoff
// for a document the current ring does not assign to this hub is refused
// (no callback): it is either a stale owner that missed a newer epoch —
// its clients re-point once it catches up — or a hostile client trying to
// make this hub spawn archivists for arbitrary documents.
func (h *Hub) handleHandoffBegin(c *hubConn, hb *HandoffBeginFrame) {
	if _, owned := h.DocOwner(hb.Doc); !owned {
		h.logf("hub: refusing handoff of doc %q (epoch %d) from %s: not the owner under the current ring",
			hb.Doc, hb.Epoch, c.conn.RemoteAddr())
		return
	}
	h.handoffsIn.Add(1)
	h.logf("hub: receiving handoff of doc %q (epoch %d) from %s", hb.Doc, hb.Epoch, c.conn.RemoteAddr())
	if h.ownership != nil {
		h.ownership(hb.Doc, hb.Epoch, true)
	}
}

// peerLocked returns the mesh connection to addr, creating it on first use.
//
//treedoc:holds mu
func (h *Hub) peerLocked(addr string) *hubPeer {
	if h.closed || addr == "" || addr == h.self {
		return nil
	}
	if p := h.peers[addr]; p != nil && !p.dead() {
		return p
	}
	// The queue exists before the link does — frames queue up while run
	// dials — so failing it cannot close the link: run's closer does.
	p := &hubPeer{outq: newOutq(h.queueDepth, nil), hub: h, addr: addr, docs: make(map[string]bool)}
	h.peers[addr] = p
	h.wg.Add(1)
	go p.run()
	return p
}

// hubPeer is one persistent outbound mesh connection to a cooperating
// hub: ring announces, Begins and forwarded frames go out through the
// embedded queue as lossy offers (the relay path's drop-and-heal
// semantics). Inbound frames (the forwarded documents' downstream
// traffic, ring announces) are relayed to local clients only.
type hubPeer struct {
	*outq
	hub  *Hub
	addr string

	mu        sync.Mutex
	docs      map[string]bool // documents subscribed at the peer (forward mode)
	connected bool
}

// subscribe records (and, once connected, performs) the attach handshake
// for doc at the peer, so the owner relays the document's traffic back
// over this connection. The subscription is only latched once the hello
// actually made it into the queue — a hello dropped on a full queue must
// leave the next subscribe call free to retry, or the forwarded
// document's return path would be silently missing forever.
func (p *hubPeer) subscribe(doc string) {
	p.mu.Lock()
	if p.docs[doc] {
		p.mu.Unlock()
		return
	}
	if !p.connected {
		// run() flushes pending subscriptions right after connecting.
		p.docs[doc] = true
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	if f, err := encodeFrame(kindHello, &HelloFrame{Docs: []string{doc}}); err == nil && p.offer(f) {
		p.mu.Lock()
		p.docs[doc] = true
		p.mu.Unlock()
	}
}

// unsubscribe detaches a forward-mode subscription that is no longer
// wanted (the document became locally owned, or moved to another hub).
func (p *hubPeer) unsubscribe(doc string) {
	p.mu.Lock()
	had := p.docs[doc]
	delete(p.docs, doc)
	connected := p.connected
	p.mu.Unlock()
	if !had || !connected || p.dead() {
		return
	}
	if f, err := encodeFrame(kindDetach, &DetachFrame{Docs: []string{doc}}); err == nil {
		p.offer(f)
	}
}

// run dials the peer and pumps the connection: the queue's writer drains
// into the link, a closer tears the link down on failure, and the reader
// relays inbound frames to local clients.
func (p *hubPeer) run() {
	defer p.hub.wg.Done()
	link, err := DialTimeout(p.addr, meshDialTimeout)
	if err != nil {
		p.hub.logf("hub: mesh dial %s: %v", p.addr, err)
		p.fail()
		return
	}
	p.hub.wg.Add(1)
	go func() {
		defer p.hub.wg.Done()
		<-p.gone
		link.Close()
	}()
	p.start(&p.hub.wg, link.Send, nil, nil)
	// Subscriptions recorded while dialing are flushed now. The current
	// ring rides along: a peer that missed the one-shot announce at
	// adoption (unreachable, full queue) catches up whenever a mesh
	// connection to it comes up.
	if ann := p.hub.ringAnnounce(); ann != nil {
		p.offer(ann)
	}
	p.mu.Lock()
	p.connected = true
	pending := make([]string, 0, len(p.docs))
	for doc := range p.docs {
		pending = append(pending, doc)
	}
	p.mu.Unlock()
	// Blocking sends with a deadline: the docs are already latched as
	// subscribed, so a lossy flush here would silently kill each
	// document's return path; on failure, unlatch so a later subscribe
	// retries.
	ctx, cancel := context.WithTimeout(context.Background(), meshDialTimeout)
	for _, doc := range pending {
		f, err := encodeFrame(kindHello, &HelloFrame{Docs: []string{doc}})
		if err != nil || !p.put(f, ctx.Done()) {
			p.mu.Lock()
			delete(p.docs, doc)
			p.mu.Unlock()
		}
	}
	cancel()
	p.hub.logf("hub: mesh connection to %s up", p.addr)
	for {
		frame, err := link.Recv()
		if err != nil {
			p.fail()
			p.hub.logf("hub: mesh connection to %s down: %v", p.addr, err)
			return
		}
		p.handleInbound(frame)
	}
}

// handleInbound processes one frame from the peer: forwarded documents'
// downstream traffic is relayed to local clients only (never forwarded
// onward), ring announces are adopted, and unsolicited redirects retarget
// the forward subscriptions.
func (p *hubPeer) handleInbound(frame []byte) {
	switch frame[0] {
	case kindDocFrame:
		doc, inner, err := SplitDocFrame(frame)
		if err != nil {
			p.hub.unrouted.Add(1)
			return
		}
		p.hub.relayLocal(nil, doc, inner, frame)
	case kindRingAnnounce:
		decoded, err := DecodeFrame(frame)
		if err != nil {
			return
		}
		if rf := decoded.(*RingFrame); !rf.IsQuery() {
			p.hub.adoptAnnouncedRing(rf, p.addr)
		}
	case kindHelloResp:
		decoded, err := DecodeFrame(frame)
		if err != nil {
			return
		}
		for _, e := range decoded.(*HelloRespFrame).Entries {
			if e.Redirect != "" {
				p.hub.retargetForward(e.Doc, e.Redirect)
			}
		}
	}
}

// retargetLocked points s's forward subscription at owner's mesh peer,
// releasing the previous subscription; call with h.mu held. It is the
// single implementation of the subscribe/swap/unsubscribe dance every
// retarget path shares.
func (h *Hub) retargetLocked(doc string, s *docShard, owner string) {
	p := h.peerLocked(owner)
	if p == nil {
		return
	}
	p.subscribe(doc)
	if old := s.fwd.Swap(p); old != nil && old != p {
		old.unsubscribe(doc)
	}
}

// retargetForward moves a forwarded document's subscription to a new
// owner (the previous owner answered with a redirect: the ring moved).
func (h *Hub) retargetForward(doc, owner string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.shards[doc]
	if s == nil || s.fwd.Load() == nil {
		return
	}
	h.retargetLocked(doc, s, owner)
}

// refreshForward replaces a dead forward-mode mesh connection, re-dialing
// the owner and re-subscribing. Callers single-flight it via s.refreshing.
func (h *Hub) refreshForward(doc string, s *docShard, addr string) {
	defer s.refreshing.Store(false)
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := s.fwd.Load()
	if cur == nil || !cur.dead() {
		return // already refreshed by a racing caller
	}
	h.retargetLocked(doc, s, addr)
}

// QueryRing dials a hub and asks for its current ring. A hub without a
// configured ring answers epoch 0 with its own advertised address; a hub
// that does not know its own address cannot answer, and the query times
// out.
func QueryRing(addr string, timeout time.Duration) (*RingFrame, error) {
	link, err := DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer link.Close()
	if err := link.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	q, err := encodeFrame(kindRingAnnounce, &RingFrame{})
	if err != nil {
		return nil, err
	}
	if err := link.Send(q); err != nil {
		return nil, err
	}
	frame, err := link.Recv()
	if err != nil {
		return nil, fmt.Errorf("transport: ring query to %s: %w", addr, err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("transport: ring query to %s: %w", addr, err)
	}
	if rf, ok := decoded.(*RingFrame); ok && !rf.IsQuery() {
		return rf, nil
	}
	return nil, fmt.Errorf("transport: ring query to %s answered with a %T", addr, decoded)
}
