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
//   - Each relocated document runs the handoff state machine:
//     freeze → stream (kindHandoffBegin, then state frames from the
//     shared kindSnapChunk/kindOps encoder) → re-point
//     (epoch-stamped unsolicited redirect to every attached client) →
//     release (forward mode for stragglers, ownership callback for the
//     archivist lifecycle).
//   - Hubs keep persistent mesh connections (hubPeer) to other ring
//     members: ring announces and the kindForward envelope — forwarded
//     client frames and handoff streams alike — travel over them. Forward
//     mode serves a foreign document to clients that cannot reach its
//     owner shard: local frames are relayed locally and forwarded to the
//     owner; the mesh connection subscribes to the document at the owner
//     so its traffic flows back.
//
// Failure envelope: the state stream is a catch-up accelerator, not the
// source of truth. If the new owner is unreachable or dies mid-handoff,
// the old owner unfreezes, re-points its clients anyway, and logs the
// failure — the clients' engines retain their message logs and heal the
// new owner's archivist through ordinary anti-entropy. A frame received
// as kindForward is never re-forwarded, so hubs with disagreeing rings
// cannot loop frames; the disagreeing hub is answered with a ring
// announce instead.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/transport/shardmap"
	"github.com/treedoc/treedoc/internal/vclock"
)

// HandoffSource supplies a migrating document's durable state: the
// freshest snapshot with its version vector plus the retained operation
// suffix above it. *Engine implements it (see Engine.HandoffState), so an
// archivist registered with Hub.RegisterHandoff streams its whole state to
// the new owner, and the receiving archivist replays zero pre-snapshot
// operations.
type HandoffSource interface {
	Site() ident.SiteID
	HandoffState() (snap []byte, version vclock.VC, suffix []causal.Message, err error)
}

const (
	// meshDialTimeout bounds dialing a peer hub.
	meshDialTimeout = 5 * time.Second
	// handoffStreamTimeout bounds one outbound handoff's streaming phase:
	// past it the document unfreezes and clients are re-pointed regardless
	// (anti-entropy heals whatever the stream did not deliver).
	handoffStreamTimeout = 30 * time.Second
)

// errStaleEpoch marks a ConfigureRing refusal because the offered epoch
// is not above the installed one — the one failure mode callers may
// meaningfully retry with a fresher epoch.
var errStaleEpoch = errors.New("transport: ring epoch not above current")

// ConfigureRing adopts an epoch-versioned ring: self is this hub's
// advertised address (it may be absent from the ring — a resigning hub
// owns nothing afterwards) and ring the full membership. A ring whose
// epoch is not above the current one is refused (same epoch: no-op, so
// repeated announces are idempotent). Adopting a ring over live traffic
// triggers the online handoff state machine for every local document the
// membership change relocates: the document is frozen briefly, its
// registered state source streamed to the new owner over the mesh,
// attached clients re-pointed with an epoch-stamped redirect, and clients
// that stay (they cannot reach the new owner) served through forward
// mode. The new ring is announced to every mesh peer and every
// connection.
func (h *Hub) ConfigureRing(self string, ring *shardmap.Ring) error {
	if ring == nil || ring.Epoch == 0 {
		return fmt.Errorf("transport: nil or epoch-0 ring")
	}
	if self == "" {
		return &net.AddrError{Err: "hub has no advertised self address", Addr: self}
	}
	type moveOut struct {
		doc string
		to  string
		s   *docShard
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
			// A freeze left by an in-flight outbound handoff (a newer epoch
			// moved the document back mid-stream) is lifted immediately —
			// an owned document must not drop frames for the rest of that
			// stream's deadline.
			s.frozen.Store(false)
			if old := s.fwd.Swap(nil); old != nil {
				old.unsubscribe(doc)
			}
			if !ownedBefore(doc) {
				// Acquisition keys off ring adoption, not just the old
				// owner's kindHandoffBegin: if the old owner crashed or its
				// stream never arrives, this hub still brings up an
				// archivist for the served document and anti-entropy heals
				// it from the attached clients.
				gained = append(gained, doc)
			}
			continue
		}
		if ownedBefore(doc) && s.fwd.Load() == nil {
			// Moving off this hub: freeze for the streaming window.
			s.frozen.Store(true)
			outs = append(outs, moveOut{doc: doc, to: owner, s: s})
			continue
		}
		// Already foreign (forward mode, possibly with a stale target):
		// retarget the mesh subscription at the new owner.
		h.retargetLocked(doc, s, owner)
	}
	// A registered state source whose document has no local relay group
	// (its archivist is attached through another path, or nobody is
	// connected) still migrates.
	for doc := range h.sources {
		if h.shards[doc] != nil {
			continue
		}
		if owner := ring.Owner(doc); owner != self && ownedBefore(doc) {
			outs = append(outs, moveOut{doc: doc, to: owner})
		}
	}
	conns := make([]*hubConn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	var mesh []*hubPeer
	for _, n := range ring.Nodes {
		if n == self {
			continue
		}
		if p := h.peerLocked(n); p != nil {
			mesh = append(mesh, p)
		}
	}
	h.mu.Unlock()

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
		h.wg.Add(1)
		h.handoffWG.Add(1)
		go h.handoffDoc(m.doc, m.to, ring.Epoch, m.s)
	}
	return nil
}

// Resign removes this hub from the ring: it installs and announces the
// membership without itself at the next epoch (mintRing: a racing announce
// that still names this hub is minted over, not mistaken for success),
// hands off every owned document with local state, and waits (bounded by
// timeout) for the outbound handoffs to finish streaming. The hub keeps
// relaying afterwards — remaining clients are served through forward mode
// — but owns no documents.
func (h *Hub) Resign(timeout time.Duration) error {
	view := h.ringView.Load()
	ring, self := view.ring, view.self
	if ring == nil || self == "" {
		return fmt.Errorf("transport: hub has no ring to resign from")
	}
	// Resigning from a single-node ring leaves no nodes, which is no ring:
	// the mint fails.
	without := func(cur []string) []string {
		return slices.DeleteFunc(slices.Clone(cur), func(n string) bool { return n == self })
	}
	if err := h.mintRing(self, "", 0, without); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		h.handoffWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("transport: handoffs still streaming after %v", timeout)
	}
}

// handoffDoc runs one outbound handoff: stream the document's state to
// the new owner, re-point attached clients with an epoch-stamped
// redirect, keep stragglers served through forward mode, unfreeze, and
// fire the release callback.
func (h *Hub) handoffDoc(doc, to string, epoch uint64, s *docShard) {
	defer h.wg.Done()
	defer h.handoffWG.Done()
	h.handoffsOut.Add(1)
	start := time.Now()
	h.mu.Lock()
	p := h.peerLocked(to)
	h.mu.Unlock()
	var streamErr error
	beginSent := false
	if p == nil {
		streamErr = fmt.Errorf("no mesh connection to %s", to)
	} else {
		beginSent, streamErr = h.streamHandoff(p, doc, epoch)
	}
	// Re-point and set up forwarding for whoever stays attached — against
	// the ring as it stands NOW, not the epoch that started this handoff:
	// a newer epoch may have moved the document onward (re-point there
	// instead) or back to this hub (then nothing is re-pointed, no forward
	// mode is installed, and the archivist is not released). The shard may
	// also have been recreated since ConfigureRing's snapshot.
	h.mu.Lock()
	target, curEpoch := to, epoch
	ownedAgain := false
	if h.ring != nil {
		curEpoch = h.ring.Epoch
		if owner := h.ring.Owner(doc); owner == h.self {
			ownedAgain = true
		} else {
			target = owner
		}
	}
	cur := h.shards[doc]
	var attached []*hubConn
	if cur != nil {
		if ownedAgain {
			if old := cur.fwd.Swap(nil); old != nil {
				old.unsubscribe(doc)
			}
		} else {
			if snap := cur.snap.Load(); snap != nil {
				attached = *snap
			}
			h.retargetLocked(doc, cur, target)
		}
	}
	h.mu.Unlock()
	if !ownedAgain {
		if resp, err := encodeFrame(kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: doc, Redirect: target, Epoch: curEpoch}}}); err == nil {
			for _, c := range attached {
				h.offerTo(cur, c, resp)
			}
		}
	}
	if s != nil {
		s.frozen.Store(false)
	}
	if cur != nil && cur != s {
		cur.frozen.Store(false)
	}
	if ownedAgain {
		h.logf("hub: handoff of doc %q overtaken by ring epoch %d: owned here again, clients not re-pointed", doc, curEpoch)
		return
	}
	// Release only if the new owner at least saw the Begin (its own
	// acquisition hook has run, or ring adoption fired it). If the owner
	// was completely unreachable, keeping the local archivist alive keeps
	// the document durable somewhere: its re-pointed link follows the doc
	// wherever it is relayed, and the registered source can still stream
	// on a later ring change.
	if beginSent && h.ownership != nil {
		h.ownership(doc, epoch, false)
	}
	if streamErr != nil {
		h.logf("hub: handoff of doc %q to %s (epoch %d): state stream failed after %v: %v (anti-entropy heals the new owner)",
			doc, to, epoch, time.Since(start), streamErr)
		return
	}
	h.logf("hub: handoff of doc %q to %s complete in %v (epoch %d, %d clients re-pointed)",
		doc, to, time.Since(start), epoch, len(attached))
}

// streamHandoff sends Begin and the registered source's snapshot + retained
// suffix (the shared state encoder's frames inside kindForward envelopes:
// the receiver relays them like any forwarded frame), reporting whether
// the Begin made it onto the queue. Nothing closes the bracket on the
// wire: the stream is complete when the mesh queue has drained. Sends
// block into the mesh queue — the receiver's chunk reassembly is strictly
// in-order, so dropping one frame would void the sequence — bounded by
// handoffStreamTimeout overall.
func (h *Hub) streamHandoff(p *hubPeer, doc string, epoch uint64) (beginSent bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), handoffStreamTimeout)
	defer cancel()
	// The ring rides ahead of the Begin on the same FIFO: adoption's
	// one-shot announce is a lossy offer, and a receiver still on the
	// old epoch would refuse the handoff as not-its-document.
	if ann := h.ringAnnounce(); ann != nil {
		p.put(ann, ctx.Done())
	}
	begin, err := encodeFrame(kindHandoffBegin, &HandoffBeginFrame{Doc: doc, Epoch: epoch})
	if err != nil {
		return false, err
	}
	if !p.put(begin, ctx.Done()) {
		return false, fmt.Errorf("mesh connection to %s lost or timed out", p.addr)
	}
	h.mu.Lock()
	src := h.sources[doc]
	h.mu.Unlock()
	if src != nil {
		if err := h.streamSource(p, doc, src, ctx.Done()); err != nil {
			// A partial stream is tolerated: the receiver's consumers heal
			// gaps through anti-entropy.
			return true, err
		}
	}
	// Queued is not delivered: wait for the writer to put the stream on
	// the wire, so a resigning hub does not exit with the tail still
	// buffered.
	if !p.written(ctx.Done()) {
		return true, fmt.Errorf("mesh connection to %s lost before handoff stream drained", p.addr)
	}
	return true, nil
}

// streamSource streams one source's snapshot and suffix.
func (h *Hub) streamSource(p *hubPeer, doc string, src HandoffSource, expired <-chan struct{}) error {
	snap, version, suffix, err := src.HandoffState()
	if err != nil {
		return fmt.Errorf("handoff source: %w", err)
	}
	_, err = stateFrames(src.Site(), snap, version, suffix, func(inner []byte) error {
		env, err := encodeEnvelope(kindForward, doc, inner)
		if err != nil {
			return err
		}
		if !p.put(env, expired) {
			return fmt.Errorf("mesh connection to %s lost mid-stream", p.addr)
		}
		return nil
	})
	return err
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
// forwarded in forward mode, or a slice of a handoff stream — to the local
// relay group (never onward — that is what makes ring disagreement
// loop-free); a forward for a document this hub does not own is answered
// with the current ring so the stale sender re-points.
func (h *Hub) handleForward(c *hubConn, doc string, inner []byte) {
	if _, owned := h.DocOwner(doc); !owned {
		h.sendRingCorrection(c)
	}
	h.relayLocal(c, doc, inner, nil)
}

// handleHandoffBegin prepares this hub to receive a document: the
// ownership callback starts a consumer (an archivist) before any state
// frame is read off this connection — the callback runs synchronously on
// the connection's reader goroutine, so the state stream cannot outrun
// it. A handoff for a document the current ring does not assign to this
// hub is refused (no callback): it is either a stale owner that missed a
// newer epoch — its clients re-point once it catches up — or a hostile
// client trying to make this hub spawn archivists for arbitrary
// documents.
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
// hub: ring announces and forwarded frames go out through the embedded
// queue as lossy offers (the relay path's drop-and-heal semantics), handoff
// streams as blocking puts ended by written — queued is not delivered.
// Inbound frames (the forwarded documents' downstream traffic, ring
// announces) are relayed to local clients only.
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
