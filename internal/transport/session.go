package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Session-side constants.
const (
	// helloTimeout bounds how long an attach waits for the hub's handshake
	// answer.
	helloTimeout = 10 * time.Second
	// sessionQueueDepth is the per-document inbound queue on a session
	// link; a full queue drops frames (anti-entropy heals), mirroring the
	// hub's per-client queue semantics.
	sessionQueueDepth = 256
	// maxRedirectHops bounds redirect chasing during Attach: a healthy
	// reshard resolves in one hop (two while an epoch propagates), so a
	// longer chain means the ring views disagree and the client must fail
	// loudly rather than bounce forever.
	maxRedirectHops = 4
)

// Session multiplexes one or more document-scoped links over shared hub
// connections: Attach performs the kindHello handshake for a document and
// returns a Link carrying only that document's frames (envelope-wrapped
// on Send, stripped on Recv). When the hub answers an attach with a shard
// redirect, the session transparently dials the owning hub process and
// attaches there, so callers never see the ring topology. Redirects are
// epoch-stamped and bounded: the session follows at most maxRedirectHops,
// and revisiting a hub whose ring epoch has not advanced fails the attach
// instead of looping. If a redirect target cannot be dialed, the session
// falls back to asking the original hub to serve the document through
// hub-to-hub forwarding.
//
// During a live reshard the hub re-points attached clients with an
// unsolicited epoch-stamped redirect; the session migrates the document's
// link to the new owner transparently — the Link stays valid, the engine
// on top never notices, and any frames lost in the window are healed by
// anti-entropy.
//
// A Session is safe for concurrent use. Closing a Session tears down
// every connection and fails every attached link.
type Session struct {
	primary string
	// ringEpoch is the highest ring epoch any hub has reported; stale
	// re-points (a lower epoch than already seen) are ignored.
	ringEpoch atomic.Uint64

	mu     sync.Mutex
	conns  map[string]*sessConn // keyed by hub address; guarded by mu
	links  map[string]*docLink  // attached documents, for live re-pointing; guarded by mu
	closed bool                 // guarded by mu
}

// DialSession prepares a session against the hub at addr. Dialing is
// lazy: the first Attach establishes the connection (and any redirect
// target connections).
func DialSession(addr string) *Session {
	return &Session{primary: addr, conns: make(map[string]*sessConn), links: make(map[string]*docLink)}
}

// DialDoc connects to a hub and attaches to one document, following shard
// redirects. The returned link owns its session: closing the link tears
// the connection down.
func DialDoc(addr, doc string) (Link, error) {
	s := DialSession(addr)
	l, err := s.Attach(doc)
	if err != nil {
		s.Close()
		return nil, err
	}
	l.(*docLink).ownsSess = s
	return l, nil
}

// noteEpoch records the highest ring epoch seen across all hubs.
func (s *Session) noteEpoch(epoch uint64) {
	for {
		cur := s.ringEpoch.Load()
		if epoch <= cur || s.ringEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Attach subscribes to doc and returns the link carrying its frames. At
// most one link per document per session.
func (s *Session) Attach(doc string) (Link, error) {
	if err := ValidateDocID(doc); err != nil {
		return nil, err
	}
	// The duplicate check runs before any hub is asked, so a second
	// Attach of a redirected document errors here instead of reaching the
	// forward fallback and silently minting a second link.
	s.mu.Lock()
	dup := s.links[doc] != nil
	s.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("transport: doc %q already attached in this session", doc)
	}
	addr := s.primary
	prev := ""
	// visited records the ring epoch each hub reported; a redirect back to
	// a hub whose epoch has not advanced is a ring-disagreement loop.
	visited := make(map[string]uint64)
	for hop := 0; ; hop++ {
		sc, err := s.conn(addr)
		if err != nil {
			if prev != "" {
				// The redirect target is unreachable from here: fall back to
				// the hub that issued the redirect and ask it to serve the
				// document through hub-to-hub forwarding.
				return s.attachForwarded(doc, prev, err)
			}
			return nil, err
		}
		entry, err := sc.attach(doc, false)
		if err != nil {
			if prev != "" {
				// Dialed but unhealthy (handshake timeout, connection died
				// mid-attach): the same fallback applies.
				return s.attachForwarded(doc, prev, err)
			}
			return nil, err
		}
		s.noteEpoch(entry.Epoch)
		if entry.Redirect == "" {
			return s.finishAttach(sc, doc)
		}
		if seen, ok := visited[addr]; ok && entry.Epoch <= seen {
			return nil, fmt.Errorf("transport: doc %q redirect loop at %s (ring epoch %d did not advance): hubs disagree on the ring",
				doc, addr, entry.Epoch)
		}
		visited[addr] = entry.Epoch
		if hop >= maxRedirectHops {
			return nil, fmt.Errorf("transport: doc %q not resolved after %d redirects (last: %s -> %s at epoch %d)",
				doc, hop+1, addr, entry.Redirect, entry.Epoch)
		}
		prev, addr = addr, entry.Redirect
	}
}

// attachForwarded asks the hub at addr to serve doc locally via the mesh
// (the forward-flagged hello), for clients that cannot reach the owner
// shard. dialErr is the failure that forced the fallback.
func (s *Session) attachForwarded(doc, addr string, dialErr error) (Link, error) {
	sc, err := s.conn(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: doc %q owner unreachable (%v) and %s gone too: %w", doc, dialErr, addr, err)
	}
	entry, err := sc.attach(doc, true)
	if err != nil {
		return nil, err
	}
	s.noteEpoch(entry.Epoch)
	if entry.Redirect != "" {
		return nil, fmt.Errorf("transport: doc %q owner unreachable (%v) and hub %s declined to forward", doc, dialErr, addr)
	}
	return s.finishAttach(sc, doc)
}

// finishAttach registers the per-document link on the connection that
// accepted the attach. The session registry is the arbiter: a racing
// Attach for the same document loses here, releasing its hub-side
// attachment, so exactly one link per document survives.
func (s *Session) finishAttach(sc *sessConn, doc string) (Link, error) {
	dl, err := sc.newDocLink(doc)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.links[doc] != nil {
		s.mu.Unlock()
		dl.Close()
		return nil, fmt.Errorf("transport: doc %q already attached in this session", doc)
	}
	s.links[doc] = dl
	s.mu.Unlock()
	return dl, nil
}

// sessionDialTimeout bounds dialing a hub from a session: repoint and the
// forward fallback exist precisely because an owner may be unreachable,
// so an unresponsive address must cost seconds, not the OS connect
// timeout.
const sessionDialTimeout = 5 * time.Second

// conn returns the session's connection to addr, dialing it on first use.
// The dial happens outside the session lock — a slow or unreachable hub
// must not stall the session's other documents.
func (s *Session) conn(addr string) (*sessConn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: session closed")
	}
	if sc := s.conns[addr]; sc != nil && !sc.isDead() {
		s.mu.Unlock()
		return sc, nil
	}
	s.mu.Unlock()
	link, err := DialTimeout(addr, sessionDialTimeout)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		link.Close()
		return nil, fmt.Errorf("transport: session closed")
	}
	if sc := s.conns[addr]; sc != nil && !sc.isDead() {
		// A racing caller connected first; use theirs.
		link.Close()
		return sc, nil
	}
	sc := &sessConn{
		sess:    s,
		addr:    addr,
		link:    link,
		docs:    make(map[string]*docLink),
		waiters: make(map[string][]chan HelloEntry),
		dead:    make(chan struct{}),
	}
	s.conns[addr] = sc
	go sc.reader()
	return sc, nil
}

// repoint migrates an attached document to a new owner hub: the old owner
// handed the document off and sent an unsolicited epoch-stamped redirect.
// The document's Link survives — only the connection underneath changes.
// If the new owner cannot be reached, the link stays on the old hub,
// which keeps serving the document through hub-to-hub forwarding.
func (s *Session) repoint(doc, addr string, epoch uint64) {
	if epoch < s.ringEpoch.Load() {
		return // stale re-point from a hub behind the ring
	}
	s.noteEpoch(epoch)
	s.mu.Lock()
	dl := s.links[doc]
	s.mu.Unlock()
	if dl == nil || dl.closed() {
		return
	}
	if !dl.repointing.CompareAndSwap(false, true) {
		return // a migration is already in flight
	}
	defer dl.repointing.Store(false)
	if dl.conn().addr == addr {
		return // already there
	}
	sc, err := s.conn(addr)
	if err != nil {
		return // stay: the old hub forwards
	}
	entry, err := sc.attach(doc, false)
	if err != nil || entry.Redirect != "" {
		// The target redirected again (the ring moved on): one more hop,
		// then give up and stay on the forwarding path.
		if err == nil && entry.Redirect != "" && entry.Epoch >= epoch {
			if sc2, err2 := s.conn(entry.Redirect); err2 == nil {
				if e2, err3 := sc2.attach(doc, false); err3 == nil && e2.Redirect == "" {
					dl.migrate(sc2)
				}
			}
		}
		return
	}
	dl.migrate(sc)
}

// Close tears down every hub connection, failing all attached links.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*sessConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.fail(fmt.Errorf("transport: session closed"))
	}
	return nil
}

// forget drops the session's doc->link registration (on link close).
func (s *Session) forget(doc string, dl *docLink) {
	s.mu.Lock()
	if s.links[doc] == dl {
		delete(s.links, doc)
	}
	s.mu.Unlock()
}

// sessConn is one shared hub connection: a reader goroutine demultiplexes
// inbound frames to per-document links and handshake waiters.
type sessConn struct {
	sess *Session
	addr string
	link Link

	mu      sync.Mutex
	docs    map[string]*docLink
	waiters map[string][]chan HelloEntry
	err     error

	dead     chan struct{}
	deadOnce sync.Once
}

func (sc *sessConn) isDead() bool {
	select {
	case <-sc.dead:
		return true
	default:
		return false
	}
}

// fail marks the connection dead, closes the socket, and wakes every
// waiter and attached link.
func (sc *sessConn) fail(err error) {
	sc.deadOnce.Do(func() {
		sc.mu.Lock()
		sc.err = err
		sc.mu.Unlock()
		close(sc.dead)
		sc.link.Close()
	})
}

func (sc *sessConn) lastErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return sc.err
	}
	return fmt.Errorf("transport: hub connection closed")
}

// attach sends the handshake for one document and waits for the hub's
// per-document answer. With forward set, the hub is asked to serve the
// document locally via the mesh even when another shard owns it.
func (sc *sessConn) attach(doc string, forward bool) (HelloEntry, error) {
	frame, err := encodeFrame(kindHello, &HelloFrame{Docs: []string{doc}, Forward: forward})
	if err != nil {
		return HelloEntry{}, err
	}
	ch := make(chan HelloEntry, 1)
	sc.mu.Lock()
	if sc.docs[doc] != nil {
		sc.mu.Unlock()
		return HelloEntry{}, fmt.Errorf("transport: doc %q already attached on %s", doc, sc.addr)
	}
	sc.waiters[doc] = append(sc.waiters[doc], ch)
	sc.mu.Unlock()
	if err := sc.link.Send(frame); err != nil {
		sc.removeWaiter(doc, ch)
		sc.fail(err)
		return HelloEntry{}, err
	}
	select {
	case e := <-ch:
		return e, nil
	case <-sc.dead:
		sc.removeWaiter(doc, ch)
		return HelloEntry{}, sc.lastErr()
	case <-time.After(helloTimeout):
		// An abandoned waiter must not linger: the hub's late answer — or
		// the next unsolicited re-point for this document — would be
		// delivered to it and lost, starving the real consumer.
		sc.removeWaiter(doc, ch)
		// The answer may have raced the timeout into the channel.
		select {
		case e := <-ch:
			return e, nil
		default:
		}
		return HelloEntry{}, fmt.Errorf("transport: attach %q to %s timed out", doc, sc.addr)
	}
}

// removeWaiter unregisters an attach waiter that gave up.
func (sc *sessConn) removeWaiter(doc string, ch chan HelloEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	q := sc.waiters[doc]
	for i, w := range q {
		if w == ch {
			sc.waiters[doc] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// newDocLink registers the per-document link on this connection.
func (sc *sessConn) newDocLink(doc string) (*docLink, error) {
	dl := &docLink{
		doc:   doc,
		in:    make(chan []byte, sessionQueueDepth),
		done:  make(chan struct{}),
		moved: make(chan struct{}),
	}
	dl.sc = sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.isDead() {
		return nil, sc.err
	}
	if sc.docs[doc] != nil {
		return nil, fmt.Errorf("transport: doc %q already attached on %s", doc, sc.addr)
	}
	sc.docs[doc] = dl
	return dl, nil
}

// adopt registers an already-running link on this connection (migration).
func (sc *sessConn) adopt(doc string, dl *docLink) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.isDead() || sc.docs[doc] != nil {
		return false
	}
	sc.docs[doc] = dl
	return true
}

func (sc *sessConn) removeDoc(doc string, dl *docLink) {
	sc.mu.Lock()
	if sc.docs[doc] == dl {
		delete(sc.docs, doc)
	}
	sc.mu.Unlock()
}

// reader demultiplexes the shared connection: handshake answers to their
// waiters (unsolicited redirect answers re-point the document's link to
// its new owner), ring announces to the session's epoch, envelope frames
// to their document's link. A hub sends nothing else.
func (sc *sessConn) reader() {
	for {
		frame, err := sc.link.Recv()
		if err != nil {
			sc.fail(err)
			return
		}
		switch frame[0] {
		case kindHelloResp:
			decoded, err := DecodeFrame(frame)
			if err != nil {
				continue
			}
			for _, e := range decoded.(*HelloRespFrame).Entries {
				sc.mu.Lock()
				q := sc.waiters[e.Doc]
				if len(q) > 0 {
					sc.waiters[e.Doc] = q[1:]
				}
				sc.mu.Unlock()
				if len(q) > 0 {
					q[0] <- e
					continue
				}
				if e.Redirect != "" {
					// Unsolicited: the hub handed the document to a new
					// owner and is re-pointing us. Migrate off the reader
					// goroutine — it must keep draining frames.
					go sc.sess.repoint(e.Doc, e.Redirect, e.Epoch)
				}
			}
		case kindRingAnnounce:
			decoded, err := DecodeFrame(frame)
			if err != nil {
				continue
			}
			if rf := decoded.(*RingFrame); !rf.IsQuery() {
				sc.sess.noteEpoch(rf.Epoch)
			}
		case kindDocFrame:
			doc, inner, err := SplitDocFrame(frame)
			if err != nil {
				continue
			}
			sc.mu.Lock()
			dl := sc.docs[doc]
			sc.mu.Unlock()
			if dl != nil {
				dl.push(inner)
			}
		}
	}
}

// docLink is a Link scoped to one document over a shared session
// connection: Send wraps frames in the doc envelope, Recv yields the
// stripped inner frames the reader routed here. The connection underneath
// can change during a live reshard (migrate); the link itself stays
// valid.
type docLink struct {
	doc string
	in  chan []byte

	mu sync.Mutex
	sc *sessConn
	// moved is replaced (and the old one closed) on each migration, so a
	// Recv blocked on the old connection's death re-arms on the new one.
	moved chan struct{}

	done chan struct{}
	once sync.Once
	// repointing serialises migrations.
	repointing atomic.Bool
	// ownsSess is set when DialDoc created a private session for this
	// link, so closing the link closes the connection too.
	ownsSess *Session
}

func (dl *docLink) conn() *sessConn {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	return dl.sc
}

// RoutesReplay marks this link replay-routing (see ReplayRouter): a
// docLink's far end is always a hub, and hubs route directed kindReplay
// answers.
func (dl *docLink) RoutesReplay() bool { return true }

func (dl *docLink) closed() bool {
	select {
	case <-dl.done:
		return true
	default:
		return false
	}
}

// migrate atomically switches the link to a new connection: the new
// connection routes the document's frames into the same inbound queue, so
// consumers never notice. The old attachment is released best-effort.
func (dl *docLink) migrate(to *sessConn) {
	if !to.adopt(dl.doc, dl) {
		return
	}
	dl.mu.Lock()
	old := dl.sc
	dl.sc = to
	moved := dl.moved
	dl.moved = make(chan struct{})
	dl.mu.Unlock()
	close(moved)
	if old != nil && old != to {
		old.removeDoc(dl.doc, dl)
		if f, err := encodeFrame(kindDetach, &DetachFrame{Docs: []string{dl.doc}}); err == nil {
			_ = old.link.Send(f)
		}
	}
}

// push delivers one inbound frame, dropping on overflow: the consumer is
// an engine whose anti-entropy heals the loss, and a slow document must
// not stall its siblings on the shared connection.
func (dl *docLink) push(frame []byte) {
	select {
	case <-dl.done:
	case dl.in <- frame:
	default:
	}
}

// Send wraps one frame — an anti-entropy digest like any other — in the
// document envelope and writes it to the current connection. If the
// connection fails mid-migration, the send is retried once on the new
// one; a frame lost in the window is healed by anti-entropy.
func (dl *docLink) Send(frame []byte) error {
	select {
	case <-dl.done:
		return fmt.Errorf("transport: doc link closed")
	default:
	}
	env, err := EncodeDocFrame(dl.doc, frame)
	if err != nil {
		return err
	}
	sc := dl.conn()
	if err := sc.link.Send(env); err != nil {
		sc.fail(err)
		if sc2 := dl.conn(); sc2 != sc {
			if err2 := sc2.link.Send(env); err2 == nil {
				return nil
			}
		}
		return err
	}
	return nil
}

// Recv returns the next frame for this document. A migration re-arms the
// wait on the new connection; the old connection dying only fails the
// link if the document still lives there.
func (dl *docLink) Recv() ([]byte, error) {
	for {
		dl.mu.Lock()
		sc, moved := dl.sc, dl.moved
		dl.mu.Unlock()
		select {
		case f := <-dl.in:
			return f, nil
		case <-dl.done:
			return nil, fmt.Errorf("transport: doc link closed")
		case <-moved:
			continue // migrated: wait on the new connection
		case <-sc.dead:
			// Drain anything already routed before deciding.
			select {
			case f := <-dl.in:
				return f, nil
			default:
			}
			if dl.conn() != sc {
				continue // migrated away just as the old connection died
			}
			return nil, sc.lastErr()
		}
	}
}

// Close detaches from the document (best-effort) and fails pending Recv
// calls. A DialDoc link also tears down its private session.
func (dl *docLink) Close() error {
	dl.once.Do(func() {
		sc := dl.conn()
		if f, err := encodeFrame(kindDetach, &DetachFrame{Docs: []string{dl.doc}}); err == nil {
			_ = sc.link.Send(f)
		}
		sc.removeDoc(dl.doc, dl)
		sc.sess.forget(dl.doc, dl)
		close(dl.done)
		if dl.ownsSess != nil {
			dl.ownsSess.Close()
		}
	})
	return nil
}
