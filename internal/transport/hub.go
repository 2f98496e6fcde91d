package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc/internal/transport/shardmap"
)

// Hub is the relay server behind cmd/treedoc-serve: it accepts framed TCP
// connections and fans frames out within per-document relay groups. The
// hub holds no replica and never decodes operations — the causal buffers
// at the edges deduplicate, order, and repair — so it scales with wire
// throughput, not document size.
//
// Documents partition the relay: a client attaches to one or more
// documents via the kindHello handshake (DialDoc / Session), and
// doc-scoped envelope frames (kindDocFrame) are relayed only to that
// document's group. Every connection is doc-scoped: a bare data frame is
// a protocol violation that gets the connection closed, so an engine
// mis-dialled with Dial fails loudly instead of silently not converging.
// A slow client's queue overflowing drops frames for that client only;
// its engine heals via anti-entropy.
//
// With a shard ring configured (WithHubShards / ConfigureSharding /
// ConfigureRing), N hub processes split the document space by consistent
// hashing: an attach for a document this process does not own is answered
// with an epoch-stamped redirect naming the owner, which Session/DialDoc
// clients follow transparently. The ring is epoch-versioned
// (shardmap.Ring): adopting a ring with a higher epoch — from
// ConfigureRing locally, or from a kindRingAnnounce a peer or joining hub
// sent — hands off every local document the membership change relocates
// (see handoff.go), and hubs
// maintain persistent hub-to-hub mesh connections that forward a foreign
// document's frames for clients that cannot reach its owner shard.
type Hub struct {
	ln         net.Listener
	queueDepth int
	logf       func(format string, args ...any)
	// ownership, when set, is invoked as documents are acquired (a Begin
	// arrived, or an adopted ring made this hub the owner of a document it
	// serves) or released (its clients were re-pointed to the new owner)
	// through a live reshard. Called from hub goroutines; the callee
	// synchronises.
	ownership func(doc string, epoch uint64, acquired bool)

	mu     sync.Mutex
	conns  map[int64]*hubConn // guarded by mu
	nextID int64              // guarded by mu
	closed bool               // guarded by mu
	// shards maps document ID to its relay group. The map itself is
	// copy-on-write behind an atomic pointer, and each shard keeps an
	// immutable snapshot of its connections, so the per-frame relay path
	// reads both lock-free; mu serialises the (rare) attach, detach and
	// disconnect mutations.
	shards   map[string]*docShard // guarded by mu (shardPtr is the lock-free view)
	shardPtr atomic.Pointer[map[string]*docShard]

	// ring is the epoch-versioned consistent-hash routing layer when this
	// hub is one of N cooperating processes; nil means this hub owns every
	// document. ringView republishes (ring, self) behind an atomic pointer
	// for the per-frame paths (DocOwner on every kindForward), which must
	// not take the hub lock; mu still guards the mutations.
	ring     *shardmap.Ring // guarded by mu (ringView is the lock-free view)
	self     string
	ringView atomic.Pointer[hubRingView]
	// peers is the hub-to-hub mesh: one persistent outbound connection per
	// cooperating hub, dialed on first use (forwarding, Begins, ring
	// announces). Guarded by mu.
	peers map[string]*hubPeer
	// pendingPeers carries WithHubShards arguments until ListenHub
	// validates them; tests with :0 listeners use ConfigureSharding after
	// the port is known instead.
	pendingPeers []string // guarded by mu

	drops    atomic.Uint64
	relays   atomic.Uint64
	unrouted atomic.Uint64
	forwards atomic.Uint64
	// replayRoutes counts directed anti-entropy answers delivered to their
	// addressed requester alone; replayFallbacks counts answers whose
	// target was unknown or dead and fell back to the group broadcast.
	replayRoutes    atomic.Uint64
	replayFallbacks atomic.Uint64
	handoffsOut     atomic.Uint64
	handoffsIn      atomic.Uint64
	// lastDropWarn rate-limits the slow-client warning (unix nanos).
	lastDropWarn atomic.Int64
	wg           sync.WaitGroup
}

// docShard is one document's relay group.
type docShard struct {
	doc   string
	conns map[int64]*hubConn
	// snap is an immutable snapshot of conns, rebuilt under the hub lock
	// on attach/detach/disconnect, read lock-free by the relay path.
	snap   atomic.Pointer[[]*hubConn]
	relays atomic.Uint64
	drops  atomic.Uint64
	// digestRR is the rotation cursor for sampled anti-entropy relays
	// (see fanoutDigest).
	digestRR atomic.Uint64
	// sites maps a requesting site id to the connection that last sent an
	// anti-entropy pull for it, learned as pulls pass through the relay:
	// directed kindReplay answers route back along the reverse path. An
	// entry goes stale when its client reconnects; the next pull (at most
	// one grace period later) re-learns it, and routeReplay falls back to
	// broadcast for unknown or dead targets in the meantime.
	sites sync.Map // ident.SiteID → *hubConn
	// fwd, when non-nil, marks the shard as locally served but foreign:
	// frames from local clients are additionally wrapped in kindForward and
	// sent to the owning hub over this mesh connection.
	fwd atomic.Pointer[hubPeer]
	// refreshing single-flights the redial of a dead fwd peer, so a busy
	// relay path spawns at most one refresh goroutine per shard.
	refreshing atomic.Bool
}

// DocStats is one document's relay counters.
type DocStats struct {
	// Clients is the number of connections currently attached.
	Clients int
	// Relays counts frames fanned out on this document (one per receiving
	// client).
	Relays uint64
	// Drops counts frames discarded on this document because a client
	// queue was full.
	Drops uint64
}

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithHubQueueDepth sets the per-client outbound queue depth (default 256).
func WithHubQueueDepth(n int) HubOption {
	return func(h *Hub) {
		if n > 0 {
			h.queueDepth = n
		}
	}
}

// WithHubLogger directs connection logging and slow-client drop warnings
// (default: silent).
func WithHubLogger(logf func(format string, args ...any)) HubOption {
	return func(h *Hub) { h.logf = logf }
}

// WithHubShards makes the hub one of N cooperating processes splitting
// the document space: peers is the full ring membership (advertised
// addresses, identical on every process) and self is this process's own
// advertised address. Attaches for documents owned by another peer are
// answered with a redirect. A bad ring (empty, duplicate or unknown self)
// is reported by ListenHub.
//
//treedoc:unguarded options are applied in ListenHub before the hub goes live
func WithHubShards(self string, peers []string) HubOption {
	return func(h *Hub) {
		// Defer validation to ListenHub via ConfigureSharding so the error
		// surfaces instead of being swallowed by the option signature.
		h.self = self
		h.pendingPeers = peers
	}
}

// WithHubSelf records the hub's own advertised address without configuring
// a ring: the hub owns every document until a ring is adopted, but can
// already answer ring queries and be named by a joining hub.
func WithHubSelf(self string) HubOption {
	return func(h *Hub) { h.self = self }
}

// WithHubOwnership installs a callback invoked when this hub acquires a
// document (a Begin arrived, or an adopted ring made this hub the owner of
// a document it serves) or releases one (its attached clients were
// re-pointed to the new owner) through a live reshard. cmd/treedoc-serve
// uses it to start per-document archivists and to begin their hand-over.
// The callback runs on hub goroutines, inside ConfigureRing and the mesh
// readers, and must return promptly.
func WithHubOwnership(fn func(doc string, epoch uint64, acquired bool)) HubOption {
	return func(h *Hub) { h.ownership = fn }
}

// ListenHub starts a hub on addr (e.g. ":9707" or "127.0.0.1:0") and
// begins accepting clients in the background.
//
//treedoc:unguarded the hub is not live until acceptLoop starts, at the end
func ListenHub(addr string, opts ...HubOption) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &Hub{
		ln:         ln,
		queueDepth: defaultQueueDepth,
		logf:       func(string, ...any) {},
		conns:      make(map[int64]*hubConn),
		shards:     make(map[string]*docShard),
		peers:      make(map[string]*hubPeer),
	}
	for _, o := range opts {
		o(h)
	}
	h.publishShards()
	h.publishRingView()
	if h.pendingPeers != nil {
		if err := h.ConfigureSharding(h.self, h.pendingPeers); err != nil {
			ln.Close()
			return nil, err
		}
		h.pendingPeers = nil
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// ConfigureSharding installs (or replaces) the consistent-hash ring: self
// is this process's advertised address and peers the full membership. The
// new ring's epoch is one above the current one (1 on first
// configuration), and installing it over live traffic hands off every
// local document the change relocates — see ConfigureRing.
func (h *Hub) ConfigureSharding(self string, peers []string) error {
	if !slices.Contains(peers, self) {
		return &net.AddrError{Err: "self address not in peer ring", Addr: self}
	}
	return h.mintRing(self, "", 0, func([]string) []string { return peers })
}

// Join adds this hub (its WithHubSelf address) to the live ring that the
// member at via belongs to: fetch the current membership, install and
// announce it with this hub added at the next epoch — every member then
// hands off the documents the change relocates. timeout bounds each ring
// query.
func (h *Hub) Join(via string, timeout time.Duration) error {
	self := h.ringView.Load().self
	return h.mintRing(self, via, timeout, func(cur []string) []string {
		if slices.Contains(cur, self) {
			return cur
		}
		return append(slices.Clone(cur), self)
	})
}

// mintRing is the one way this hub changes the membership: derive the
// wanted nodes from the current ones, mint the next epoch, install and
// announce it (ConfigureRing), and verify by identity that this ring is the
// one installed. Minting races concurrently adopted announces —
// ConfigureRing treats an equal epoch as an idempotent no-op and refuses a
// lower one — so a lost race starts over from the ring that won. The
// current ring is the installed one, or the one the member at via reports
// when that is newer (via "" asks nobody).
func (h *Hub) mintRing(self, via string, timeout time.Duration, want func(cur []string) []string) error {
	for attempt := 0; attempt < 5; attempt++ {
		var nodes []string
		var epoch uint64
		if cur := h.Ring(); cur != nil {
			nodes, epoch = cur.Nodes, cur.Epoch
		}
		if via != "" {
			q, err := QueryRing(via, timeout)
			if err != nil {
				return fmt.Errorf("transport: ring query to %s: %w", via, err)
			}
			if q.Epoch >= epoch {
				nodes, epoch = q.Nodes, q.Epoch
			}
		}
		ring, err := shardmap.NewRing(epoch+1, want(nodes))
		if err != nil {
			return fmt.Errorf("transport: ring epoch %d: %w", epoch+1, err)
		}
		if err := h.ConfigureRing(self, ring); err != nil && !errors.Is(err, errStaleEpoch) {
			return err
		}
		if h.Ring() == ring {
			return nil
		}
	}
	return errors.New("transport: concurrent ring adoptions kept winning the epoch")
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// hubRingView is the lock-free snapshot of (ring, self) the per-frame
// paths read.
type hubRingView struct {
	ring *shardmap.Ring
	self string
}

// publishRingView refreshes the lock-free ring snapshot; call with mu
// held (or before the hub goes live).
//
//treedoc:holds mu
func (h *Hub) publishRingView() {
	h.ringView.Store(&hubRingView{ring: h.ring, self: h.self})
}

// DocOwner reports the shard-ring owner of doc and whether that is this
// hub, lock-free (it runs per forwarded frame). Without a configured
// ring this hub owns every document. Callers (like cmd/treedoc-serve
// deciding where to run archivists) must consult this rather than
// building a parallel ring, so ownership decisions and attach redirects
// can never disagree.
func (h *Hub) DocOwner(doc string) (owner string, owned bool) {
	v := h.ringView.Load()
	if v == nil || v.ring == nil {
		if v != nil {
			return v.self, true
		}
		return "", true
	}
	owner = v.ring.Owner(doc)
	return owner, owner == v.self
}

// RingEpoch returns the epoch of the currently installed ring (0 when no
// ring is configured).
func (h *Hub) RingEpoch() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ring == nil {
		return 0
	}
	return h.ring.Epoch
}

// Ring returns the currently installed ring (nil when none). mintRing
// verifies with it that its ring actually landed, because a racing adoption
// of an equal epoch makes ConfigureRing a silent no-op.
func (h *Hub) Ring() *shardmap.Ring {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring
}

// DocStats returns per-document relay counters for every document with an
// active relay group or nonzero history this hub retains.
func (h *Hub) DocStats() map[string]DocStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]DocStats, len(h.shards))
	for doc, s := range h.shards {
		out[doc] = DocStats{
			Clients: len(s.conns),
			Relays:  s.relays.Load(),
			Drops:   s.drops.Load(),
		}
	}
	return out
}

// Close stops accepting, disconnects every client, and waits for the
// hub's goroutines to drain.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.wg.Wait()
		return nil
	}
	h.closed = true
	queues := make([]*outq, 0, len(h.conns)+len(h.peers))
	for _, c := range h.conns {
		queues = append(queues, c.outq)
	}
	for _, p := range h.peers {
		queues = append(queues, p.outq)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, q := range queues {
		q.fail()
	}
	h.wg.Wait()
	return err
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.nextID++
		c := &hubConn{
			outq: newOutq(h.queueDepth, func() { conn.Close() }),
			hub:  h,
			id:   h.nextID,
			conn: conn,
			docs: make(map[string]bool),
		}
		h.conns[c.id] = c
		n := len(h.conns)
		h.mu.Unlock()
		h.logf("hub: client %d connected from %s (%d online)", c.id, conn.RemoteAddr(), n)
		bw := bufio.NewWriterSize(conn, 64<<10)
		c.start(&h.wg, func(frame []byte) error { return WriteFrame(bw, frame) }, bw.Flush, nil)
		h.wg.Add(1)
		go c.reader()
	}
}

// publishShards refreshes the copy-on-write shard map; call with mu held
// (or before the hub goes live).
//
//treedoc:holds mu
func (h *Hub) publishShards() {
	m := make(map[string]*docShard, len(h.shards))
	for doc, s := range h.shards {
		m[doc] = s
	}
	h.shardPtr.Store(&m)
}

// attachLocked adds c to doc's relay group, creating it on first attach,
// and returns the group; call with mu held.
//
//treedoc:holds mu
func (h *Hub) attachLocked(c *hubConn, doc string) *docShard {
	s := h.shards[doc]
	if s == nil {
		s = &docShard{doc: doc, conns: make(map[int64]*hubConn)}
		h.shards[doc] = s
		h.publishShards()
	}
	if !c.docs[doc] {
		c.docs[doc] = true
		s.conns[c.id] = c
		s.rebuild()
	}
	return s
}

// detachLocked removes c from doc's relay group, deleting the group when
// its last connection leaves — and releasing its mesh subscription, so a
// dissolved forward-mode group stops drawing the document's traffic
// cross-hub; call with mu held.
//
//treedoc:holds mu
func (h *Hub) detachLocked(c *hubConn, doc string) {
	if !c.docs[doc] {
		return
	}
	delete(c.docs, doc)
	s := h.shards[doc]
	if s == nil {
		return
	}
	delete(s.conns, c.id)
	if len(s.conns) == 0 {
		delete(h.shards, doc)
		h.publishShards()
		if p := s.fwd.Swap(nil); p != nil {
			p.unsubscribe(doc)
		}
		return
	}
	s.rebuild()
}

// rebuild refreshes the shard's lock-free snapshot; call with the hub
// lock held.
func (s *docShard) rebuild() {
	snap := make([]*hubConn, 0, len(s.conns))
	for _, c := range s.conns {
		snap = append(snap, c)
	}
	s.snap.Store(&snap)
}

// hello processes an attach handshake: attach every owned document,
// answer epoch-stamped redirects for documents another shard owns — or,
// when the client set the forward flag (it cannot reach the owner),
// attach the foreign document locally and relay its frames over the mesh.
func (h *Hub) hello(c *hubConn, docs []string, forward bool) {
	entries := make([]HelloEntry, 0, len(docs))
	h.mu.Lock()
	ring, self := h.ring, h.self
	var epoch uint64
	if ring != nil {
		epoch = ring.Epoch
	}
	for _, doc := range docs {
		owner := self
		if ring != nil {
			owner = ring.Owner(doc)
		}
		if owner != self && !forward {
			entries = append(entries, HelloEntry{Doc: doc, Redirect: owner, Epoch: epoch})
			continue
		}
		s := h.attachLocked(c, doc)
		if owner != self {
			h.retargetLocked(doc, s, owner) // forward mode towards the owner
		}
		entries = append(entries, HelloEntry{Doc: doc, Epoch: epoch})
	}
	h.mu.Unlock()
	resp, err := encodeFrame(kindHelloResp, &HelloRespFrame{Entries: entries})
	if err != nil {
		h.logf("hub: client %d hello response: %v", c.id, err)
		return
	}
	// The handshake answer must not be silently dropped: block into the
	// queue (the writer is draining it) until the connection dies.
	c.put(resp, nil)
	for _, e := range entries {
		if e.Redirect != "" {
			h.logf("hub: client %d doc %q redirected to %s", c.id, e.Doc, e.Redirect)
		} else {
			h.logf("hub: client %d attached to doc %q", c.id, e.Doc)
		}
	}
}

func (h *Hub) detach(c *hubConn, docs []string) {
	h.mu.Lock()
	for _, doc := range docs {
		h.detachLocked(c, doc)
	}
	h.mu.Unlock()
}

// relay fans one frame out to every other client attached to doc, and —
// when the shard is in forward mode — on to the owning hub over the mesh.
// It runs on every inbound frame, so it reads the copy-on-write shard map
// and the shard's connection snapshot without taking the hub lock. inner
// is the bare frame (what crosses the mesh and what the routing rules
// inspect); env is the client's doc-scoped envelope, which members receive
// as-is.
func (h *Hub) relay(from *hubConn, doc string, inner, env []byte) {
	s := h.relayLocal(from, doc, inner, env)
	if s == nil {
		return
	}
	if p := s.fwd.Load(); p != nil {
		if p.dead() {
			// The owner's mesh connection died: redial and resubscribe off
			// the hot path (single-flight per shard); this frame is dropped
			// and healed by anti-entropy.
			if s.refreshing.CompareAndSwap(false, true) {
				go h.refreshForward(doc, s, p.addr)
			}
			return
		}
		fwd, err := encodeEnvelope(kindForward, doc, inner)
		if err == nil && p.offer(fwd) {
			h.forwards.Add(1)
		}
	}
}

// relayLocal fans one frame out to doc's local clients only, excluding
// from when the delivering connection is itself attached, and returns the
// shard it relayed on (nil when there is none). It is the whole relay for
// mesh-delivered frames (a forwarded document's traffic arriving from
// another hub): those are never forwarded onward, so disagreeing rings
// cannot loop a frame between hubs.
func (h *Hub) relayLocal(from *hubConn, doc string, inner, env []byte) *docShard {
	shards := h.shardPtr.Load()
	s := (*shards)[doc]
	if s == nil {
		h.unrouted.Add(1)
		return nil
	}
	h.fanoutShard(s, from, doc, inner, env)
	return s
}

// fanoutShard delivers one frame to every connection in the shard except
// from. Anti-entropy frames take narrower paths instead: a pull (a
// digest) is delivered to a rotating sample of the group —
// on a hot document, relaying every member's digest to every other
// member is a quadratic storm in which each copy solicits the same
// retransmission, and the rotation guarantees a requester unlucky in one
// round is heard by different members in the next — and a directed
// answer (kindReplay) is routed to its addressed requester alone, along
// the reverse path the pull taught.
func (h *Hub) fanoutShard(s *docShard, from *hubConn, doc string, inner, env []byte) {
	conns := s.snap.Load()
	if conns == nil {
		return
	}
	if env == nil {
		var err error
		if env, err = EncodeDocFrame(doc, inner); err != nil {
			// Cannot happen for wire-read frames, which already passed the
			// size limits.
			h.unrouted.Add(1)
			return
		}
	}
	if inner[0] == kindReplay {
		h.routeReplay(s, from, doc, inner, env, *conns)
		return
	}
	if inner[0] == kindSyncReq {
		// A passing pull teaches the reverse route its answers take.
		if from != nil {
			if site, ok := peekDigestFrom(inner); ok {
				s.sites.Store(site, from)
			}
		}
		if len(*conns) > digestRelayFanout+1 {
			h.fanoutDigest(s, from, env, *conns)
			return
		}
	}
	for _, c := range *conns {
		if c != from {
			h.deliverFrame(s, c, env)
		}
	}
}

// digestRelayFanout is how many group members a relayed anti-entropy pull
// reaches. Two gives one spare answer against a dead or equally-behind
// sample; groups at or below fanout+1 members skip sampling entirely.
const digestRelayFanout = 2

// fanoutDigest delivers one pull frame to digestRelayFanout members,
// starting at the shard's rotation cursor. The cursor advances by the
// fanout per pull, so consecutive pulls sweep disjoint windows of the
// group and every member is sampled within one rotation.
func (h *Hub) fanoutDigest(s *docShard, from *hubConn, env []byte, conns []*hubConn) {
	start := int(s.digestRR.Add(digestRelayFanout) % uint64(len(conns)))
	sent := 0
	for off := 0; off < len(conns) && sent < digestRelayFanout; off++ {
		c := conns[(start+off)%len(conns)]
		if c == from {
			continue
		}
		h.deliverFrame(s, c, env)
		sent++
	}
}

// routeReplay delivers a directed anti-entropy answer to the one
// connection that last pulled for the addressed site, instead of the
// whole group — on a hot document, broadcasting every answer multiplies
// its bytes by the group size for members who never asked. The target
// receives the wrapper intact (a mesh hop routes it onward by the same
// rule; the requester's engine unwraps). An unknown, dead or self target
// falls back to broadcasting the inner frame — exactly what an unwrapped
// answer would have done.
func (h *Hub) routeReplay(s *docShard, from *hubConn, doc string, inner, env []byte, conns []*hubConn) {
	to, payload, err := SplitReplay(inner)
	if err != nil {
		h.unrouted.Add(1)
		return
	}
	if v, ok := s.sites.Load(to); ok {
		if c := v.(*hubConn); c != from && !c.dead() {
			h.deliverFrame(s, c, env)
			h.replayRoutes.Add(1)
			return
		}
	}
	h.replayFallbacks.Add(1)
	penv, err := EncodeDocFrame(doc, payload)
	if err != nil {
		h.unrouted.Add(1)
		return
	}
	for _, c := range conns {
		if c != from {
			h.deliverFrame(s, c, penv)
		}
	}
}

// deliverFrame relays one enveloped frame to a shard member.
func (h *Hub) deliverFrame(s *docShard, c *hubConn, env []byte) {
	if h.offerTo(s, c, env) {
		s.relays.Add(1)
		h.relays.Add(1)
	}
}

// offerTo queues one frame for a client — relayed, or a control frame of
// the hub's own (ring announce, unsolicited redirect) — and counts it as
// shed when the client's queue is full: every frame is lossy, none
// silently. s is the shard of the document it concerns, nil for none.
func (h *Hub) offerTo(s *docShard, c *hubConn, frame []byte) bool {
	if c.offer(frame) {
		return true
	}
	h.drops.Add(1)
	if s != nil {
		s.drops.Add(1)
		h.warnDrop(c, s)
	}
	return false
}

// warnDrop logs a slow-client drop with client and document identity, at
// most once per second across the hub: a saturated client drops thousands
// of frames per second, and the log must not amplify that.
func (h *Hub) warnDrop(c *hubConn, s *docShard) {
	const warnEvery = int64(time.Second)
	now := time.Now().UnixNano()
	last := h.lastDropWarn.Load()
	if now-last < warnEvery || !h.lastDropWarn.CompareAndSwap(last, now) {
		return
	}
	h.logf("hub: dropping frames for slow client %d (%s) on doc %q (doc drops %d, hub drops %d); anti-entropy will heal",
		c.id, c.conn.RemoteAddr(), s.doc, s.drops.Load(), h.drops.Load())
}

// drop forgets a connection whose reader has returned (its one caller).
func (h *Hub) drop(c *hubConn) {
	h.mu.Lock()
	delete(h.conns, c.id)
	for doc := range c.docs {
		h.detachLocked(c, doc)
	}
	n := len(h.conns)
	h.mu.Unlock()
	c.fail()
	h.logf("hub: client %d disconnected (%d online)", c.id, n)
}

// hubConn is one relayed client: reader fans frames in, the embedded
// queue's writer drains the bounded outbound side into the socket, one
// flush per burst. A write error fails the queue, which closes the socket;
// the reader then drops the connection from the hub.
type hubConn struct {
	*outq
	hub  *Hub
	id   int64
	conn net.Conn
	// docs is the set of attached documents; guarded by hub.mu (the relay
	// path never reads it — shard snapshots carry membership).
	docs map[string]bool
	// lastRingCorrect rate-limits ring-announce corrections to a stale
	// forwarder on this connection (unix nanos).
	lastRingCorrect atomic.Int64
}

func (c *hubConn) reader() {
	defer c.hub.wg.Done()
	defer c.hub.drop(c)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		frame, err := ReadFrame(br)
		if err != nil {
			return
		}
		switch frame[0] {
		case kindDocFrame, kindForward:
			doc, inner, err := splitEnvelope(frame)
			switch {
			case err != nil:
				c.hub.unrouted.Add(1)
			case frame[0] == kindDocFrame:
				c.hub.relay(c, doc, inner, frame)
			default:
				c.hub.handleForward(c, doc, inner)
			}
		case kindHello, kindDetach, kindRingAnnounce, kindHandoffBegin:
			decoded, err := DecodeFrame(frame)
			if err != nil {
				c.hub.unrouted.Add(1)
				continue
			}
			switch f := decoded.(type) {
			case *HelloFrame:
				c.hub.hello(c, f.Docs, f.Forward)
			case *DetachFrame:
				c.hub.detach(c, f.Docs)
			case *RingFrame:
				c.hub.handleRingFrame(c, f)
			case *HandoffBeginFrame:
				c.hub.handleHandoffBegin(c, f)
			}
		default:
			// Data frames reach a hub only inside a document envelope (and
			// clients never relay handshake answers). A bare one means an
			// engine was pointed here with Dial instead of
			// DialDoc/DialSession: close the connection so it fails loudly
			// rather than silently never converging.
			c.hub.unrouted.Add(1)
			c.hub.logf("hub: client %d (%s) sent a bare frame of kind %#x; hubs relay document-scoped frames only (attach with DialDoc or DialSession): closing",
				c.id, c.conn.RemoteAddr(), frame[0])
			return
		}
	}
}
