package transport

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/oplog"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Replica is the replica the engine drives (the public Doc and TextBuffer
// both qualify): it applies remote operations in batches, snapshots and
// installs its state, and mints and lists flatten rounds. Every engine does
// all three, so every member can take over another's state and every round
// it joins can commit. Its methods must be safe to call concurrently with the
// caller's local edits.
type Replica interface {
	BatchApplier
	Snapshotter
	Flattener
}

// BatchApplier is the replica's one apply path, for live delivery and log
// replay alike: ApplyBatch applies ops in order under one replica lock,
// returning how many applied before the first failure (len(ops) and nil on
// success) — one lock acquisition per causally-ready run, and the
// replica's tree walk caches stay hot across the whole batch.
type BatchApplier interface {
	ApplyBatch(ops []core.Op) (int, error)
}

// Snapshotter is the replica's part in log compaction and snapshot
// catch-up. Snapshot must capture the state and the version vector
// describing it atomically: the version covers exactly the operations
// whose effects are in the bytes. InstallSnapshot must reject (with an
// error wrapping core.ErrStaleSnapshot) any snapshot whose version does
// not dominate the replica's state, and must return the installed version
// on success.
type Snapshotter interface {
	Snapshot() (data []byte, version vclock.VC, err error)
	InstallSnapshot(data []byte) (version vclock.VC, err error)
}

// FsyncMode re-exports the oplog durability policy.
type FsyncMode = oplog.FsyncMode

// Fsync policies for WithLogDir engines.
const (
	// FsyncBatch (default): the engine syncs the log once per flushed
	// batch, before frames fan out to peers — locally generated operations
	// are on stable storage before any peer can have seen their stamps.
	FsyncBatch = oplog.FsyncBatch
	// FsyncAlways syncs after every append.
	FsyncAlways = oplog.FsyncAlways
)

// ErrStopped is returned by Broadcast after Stop.
var ErrStopped = fmt.Errorf("transport: engine stopped")

// Engine defaults.
const (
	// batchSize bounds the operations the actor packs into one live frame
	// before flushing: larger batches amortise framing, smaller ones cut
	// latency. The wire's own bound is maxBatch.
	batchSize           = 64
	defaultQueueDepth   = 256
	defaultSyncInterval = 200 * time.Millisecond
	// defaultCompactEvery is the retained-message count that triggers a
	// snapshot + truncate cycle.
	defaultCompactEvery = 16384
	// defaultSnapThreshold is how many operations behind a digest must be
	// before the engine answers with a snapshot instead of an op replay.
	defaultSnapThreshold = 8192
	// syncChunk bounds the operations per anti-entropy reply frame.
	syncChunk = 256
	// maxPending caps the causal buffer's undeliverable backlog: wire-valid
	// messages with permanent causal gaps (a hostile or broken peer) must
	// not pin unbounded memory. Pruned legitimate messages come back via
	// anti-entropy.
	maxPending = 1 << 14
	// stopDrainTimeout bounds how long a peer writer keeps flushing its
	// queue after Stop before the link is torn down anyway.
	stopDrainTimeout = 2 * time.Second
	// snapResendAfter is how long the engine waits before offering the
	// same barrier snapshot to the same requester again. Paced puts never
	// drop a chunk from the peer's own queue, but a relay further on may
	// shed one, voiding the receiver's reassembly; until the wait is over,
	// the requester's repeated pulls do not draw a snapshot apiece.
	snapResendAfter = time.Second
	// defaultFlattenTimeout is the flatten round's deadline (see
	// WithFlattenTimeout).
	defaultFlattenTimeout = 2 * time.Second
	// snapAssemblyTTL bounds how long a partial chunked-snapshot
	// reassembly is retained: a sender that stopped mid-sequence (or a
	// dropped chunk) must not pin buffer memory forever. The snapshot is
	// re-offered by the sender's own snapResendAfter pacing.
	snapAssemblyTTL = 15 * time.Second
	// keepaliveTicks is the digest-suppression escape hatch: a peer whose
	// digests have been suppressed this many sync intervals in a row gets
	// one anyway, so a frame lost after the state went quiet is still
	// healed within a bounded number of ticks.
	keepaliveTicks = 10
	// gapGraceTicks is how many sync intervals a frontier gap must
	// persist before it triggers a digest. A gap against the link's heard
	// frontier usually closes on its own — the missing operations are in
	// flight on the relay path — and digesting into it would draw a
	// retransmission of frames about to arrive anyway.
	gapGraceTicks = 2
)

// Option configures an Engine.
type Option func(*Engine)

// WithSyncInterval sets the anti-entropy period (default 200ms): each tick
// the engine may pull from a peer by sending its delivered clock, and the
// peer retransmits whatever the clock does not cover.
func WithSyncInterval(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.syncEvery = d
		}
	}
}

// WithQueueDepth sets the per-peer outbound queue depth (default 256).
// When a peer's queue is full, frames to it are dropped — anti-entropy
// retransmits them later — so a slow consumer never stalls the actor.
func WithQueueDepth(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.queueDepth = n
		}
	}
}

// WithLogDir enables the durable operation log in dir: every stamped and
// delivered message is appended to an internal/oplog segment store, and
// NewEngine replays the directory on start — restoring the replica's
// state, clock and allocation sequence, so a restarted site re-stamps
// nothing. The replica handed to NewEngine must be fresh (no history);
// the engine rebuilds it from the stored snapshot and log suffix.
func WithLogDir(dir string) Option {
	return func(e *Engine) { e.logDir = dir }
}

// WithFsync sets the durable log's fsync policy (default FsyncBatch).
// Only meaningful together with WithLogDir.
func WithFsync(mode FsyncMode) Option {
	return func(e *Engine) { e.fsync = mode }
}

// WithCompactEvery sets how many retained messages accumulate before the
// engine snapshots the replica and truncates what the snapshot covers and
// every peer has acknowledged — the in-memory message log always, and the
// on-disk segments when WithLogDir is set (default 16384; 0 disables
// compaction).
func WithCompactEvery(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.compactEvery = n
		}
	}
}

// WithSnapshotThreshold sets how many operations behind a peer's
// anti-entropy digest must be before the engine serves a snapshot plus
// log suffix instead of replaying the full op history (default 8192; 0
// disables threshold-based snapshots — peers below the truncation floor
// still receive snapshots, because the ops below the floor no longer
// exist).
func WithSnapshotThreshold(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.snapThreshold = n
		}
	}
}

// WithFlattenTimeout sets the flatten round's deadline: a round this engine
// authored that is not stable after this long is aborted. Default 2s,
// raised to five sync intervals when WithSyncInterval is longer.
func WithFlattenTimeout(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.flattenTimeout = d
		}
	}
}

// command is one unit of work for the actor. Exactly one of three is set:
// local ops to stamp and broadcast, one decoded inbound frame with the
// link it arrived on, or a control closure.
type command struct {
	ops   []core.Op
	frame any
	from  *peer
	ctl   func()
}

// Engine runs one replica's replication: causal delivery in, stamped
// batches out, periodic anti-entropy, and (optionally) a durable, pruned
// operation log with snapshot catch-up. All distribution state (causal
// buffer, message log, peer set, compaction barrier) is owned by a single
// actor goroutine that drains the inbox channel, so none of it needs a
// lock.
type Engine struct {
	site       ident.SiteID
	doc        Replica
	queueDepth int
	syncEvery  time.Duration
	// now is the only clock the actor's call tree reads: time.Now under
	// NewEngine, the driver's virtual clock under NewStepper.
	now func() time.Time

	logDir         string
	fsync          FsyncMode
	compactEvery   int
	snapThreshold  int
	flattenTimeout time.Duration

	inbox chan command
	done  chan struct{}
	// drained closes after the actor's final flush on Stop: peer writers
	// wait for it so Broadcast-accepted ops reach their queues before the
	// final drain.
	drained chan struct{}
	wg      sync.WaitGroup
	// lifeMu orders Connect against Stop: Connect's wg.Add must not race
	// a Stop whose wg.Wait already returned.
	lifeMu  sync.Mutex
	stopped bool

	drops             atomic.Uint64
	wireErrs          atomic.Uint64
	encodeErrs        atomic.Uint64
	pruned            atomic.Uint64
	applied           atomic.Uint64
	snapsSent         atomic.Uint64
	snapsInstalled    atomic.Uint64
	flattensApplied   atomic.Uint64
	flattensCommitted atomic.Uint64
	flattensAborted   atomic.Uint64
	digestsSent       atomic.Uint64
	digestsSuppressed atomic.Uint64
	replayOps         atomic.Uint64
	replayBytes       atomic.Uint64
	frontierDrops     atomic.Uint64

	// Actor-owned state: touched only from run(). The trailing
	// "actor-owned" markers are load-bearing — treedoc-vet's actoronly
	// analyzer rejects any access outside the actor loop's call tree.
	buf      *causal.Buffer   // actor-owned
	retained RetainedLog      // actor-owned
	batch    []causal.Message // actor-owned
	peers    []*peer          // actor-owned
	log      *oplog.Log       // actor-owned
	// settled[0] is the delivered clock at the latest tick, settled[1] the
	// one before: the settle horizon. A digest answer carries nothing
	// above settled[1] — younger messages are presumed still in flight on
	// the relay path, and retransmitting them would duplicate the live
	// stream.
	settled     [2]vclock.VC     // actor-owned
	missScratch []causal.Message // actor-owned
	// logBroken latches after the first append failure: see record.
	logBroken bool // actor-owned
	// snapData/snapVC are the serving barrier: the latest snapshot and the
	// version vector of exactly what it contains. truncVC is the
	// truncation floor, below which messages are gone from the retained
	// log and the sealed log segments; advanceFloor keeps it under every
	// member's acknowledged clock, so only a digest from a new joiner or a
	// member dropped at the cap falls below it and forces a snapshot.
	snapData []byte    // actor-owned
	snapVC   vclock.VC // actor-owned
	truncVC  vclock.VC // actor-owned
	// acked is the latest delivered clock known of each member — its last
	// digest, or the stamp of its newest delivered message, which its
	// delivered clock covers. Its keys are the members, of the stability
	// frontier and of every flatten round's ack table (actor-owned).
	acked map[ident.SiteID]vclock.VC
	// sinceSnap counts retained messages since the serving barrier,
	// driving the compaction policy.
	sinceSnap int // actor-owned
	// fl is the flatten round state (flatten.go); it belongs to the actor,
	// marked field by field.
	fl flattenState
	// snapAsm holds in-progress snapshot reassemblies, keyed by the sending
	// site (see snapchunk.go).
	snapAsm map[ident.SiteID]*snapAssembly // actor-owned
	// opScratch is deliver's reusable op buffer (actor-owned).
	opScratch []core.Op

	// firstErr outlives the actor so Err stays truthful after Stop.
	errMu    sync.Mutex
	firstErr error
}

// NewEngine creates and starts an engine for the given site wrapping the
// given replica. Without WithLogDir, the replica must not have applied
// remote operations already: the engine's causal clock starts empty and
// must match the document's history. With WithLogDir, the replica must be
// completely fresh — NewEngine restores its state from the stored
// snapshot and replays the log suffix before the engine goes live, so an
// engine restarted over the same directory resumes exactly where it
// crashed and re-stamps nothing.
func NewEngine(site ident.SiteID, doc Replica, opts ...Option) (*Engine, error) {
	e, err := newEngine(site, doc, time.Now, opts)
	if err != nil {
		return nil, err
	}
	depth := 4 * e.queueDepth
	if depth < 1024 {
		depth = 1024
	}
	e.inbox = make(chan command, depth)
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// newEngine builds an engine — recovered from its log directory when one
// is configured — without starting anything: what runs it, and what its
// clock is, belong to the driver (NewEngine's goroutines, or a Stepper).
//
//treedoc:actorsafe construction happens before any driver runs the actor
func newEngine(site ident.SiteID, doc Replica, now func() time.Time, opts []Option) (*Engine, error) {
	if site == 0 || site > ident.MaxSiteID {
		return nil, fmt.Errorf("transport: site must be in [1, 2^48)")
	}
	if doc == nil {
		return nil, fmt.Errorf("transport: nil replica")
	}
	e := &Engine{
		site:          site,
		doc:           doc,
		queueDepth:    defaultQueueDepth,
		syncEvery:     defaultSyncInterval,
		compactEvery:  defaultCompactEvery,
		snapThreshold: defaultSnapThreshold,
		now:           now,
		done:          make(chan struct{}),
		drained:       make(chan struct{}),
		buf:           causal.NewBuffer(site),
		acked:         make(map[ident.SiteID]vclock.VC),
	}
	for _, o := range opts {
		o(e)
	}
	if e.flattenTimeout <= 0 {
		e.flattenTimeout = defaultFlattenTimeout
		if min := 5 * e.syncEvery; e.flattenTimeout < min {
			// Ack resends ride the anti-entropy tick, so the deadline must
			// span several of them.
			e.flattenTimeout = min
		}
	}
	e.fl = flattenState{own: make(map[uint64]*authored)}
	if e.logDir != "" {
		if err := e.openAndReplay(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// openAndReplay opens the durable log and rebuilds the replica: install
// the stored snapshot (if any), then replay every retained record the
// snapshot does not cover, advancing the causal clock as it goes, and
// apply the replayed operations through the live delivery's apply loop.
//
//treedoc:actorsafe recovery runs from newEngine, before the actor starts
func (e *Engine) openAndReplay() error {
	l, err := oplog.Open(e.logDir, oplog.Options{Fsync: e.fsync})
	if err != nil {
		return err
	}
	clock := vclock.New()
	if data, snapClock, err := l.Snapshot(); err != nil {
		l.Close()
		return err
	} else if data != nil {
		version, err := e.doc.InstallSnapshot(data)
		if err != nil {
			l.Close()
			return fmt.Errorf("transport: restore snapshot: %w", err)
		}
		clock = version
		e.snapData, e.snapVC = data, snapClock.Clone()
		// Nothing below the stored snapshot survives a restart, so the
		// retained-log floor starts at the snapshot clock.
		e.truncVC = snapClock.Clone()
	}
	var ops []core.Op
	replayErr := l.Replay(func(site ident.SiteID, seq uint64, body []byte) error {
		if seq <= clock.Get(site) {
			return nil // covered by the snapshot (or a segment overlap)
		}
		m, err := DecodeMsgBody(body)
		if err != nil {
			return fmt.Errorf("transport: log record s%d#%d: %w", site, seq, err)
		}
		op, ok := m.Payload.(core.Op)
		if !ok {
			return fmt.Errorf("transport: log record s%d#%d is not an op", site, seq)
		}
		clock.Merge(m.TS)
		e.retained.Append(m)
		ops = append(ops, op)
		return nil
	})
	if replayErr != nil {
		l.Close()
		return replayErr
	}
	// A message counts as delivered whether or not its op applies, exactly
	// as it did live: the shared loop skips an op the replica refuses,
	// where aborting would brick every restart over this directory.
	e.apply(ops)
	e.buf.Advance(clock)
	e.log = l
	e.sinceSnap = e.retained.Len()
	return nil
}

// Site returns the engine's site identifier.
func (e *Engine) Site() ident.SiteID { return e.site }

// encodeFailed counts n outbound frames that did not encode, the first with
// err, and latches the failure in Err: past maxClockEntries sites a clock
// does not encode, and a replica that cannot send has stopped replicating.
func (e *Engine) encodeFailed(n int, err error) {
	if n > 0 {
		e.encodeErrs.Add(uint64(n))
		e.setErr(fmt.Errorf("transport: encode: %w", err))
	}
}

// FlattensApplied counts flattens applied to this replica — minted here as
// author or delivered through the causal stream.
func (e *Engine) FlattensApplied() uint64 { return e.flattensApplied.Load() }

// FlattensAborted counts the aborts this engine minted as author — the
// deadline passed before every member acked, or the region was gone — and
// the proposals it refused. Aborts are harmless; propose again.
func (e *Engine) FlattensAborted() uint64 { return e.flattensAborted.Load() }

// Broadcast stamps local operations and queues them for delivery to every
// peer. Ops must be passed in generation order; per-replica local edits
// must be serialised by the caller (one writer goroutine, or a lock around
// edit+Broadcast) so stamps match generation order. Ops accepted before
// Stop is called are stamped and flushed to peer queues during shutdown,
// and peer writers drain their queues (bounded by a deadline) before the
// links close.
func (e *Engine) Broadcast(ops ...core.Op) error {
	if len(ops) == 0 {
		return nil
	}
	cp := make([]core.Op, len(ops))
	copy(cp, ops)
	if !e.post(command{ops: cp}) {
		return ErrStopped
	}
	return nil
}

// Connect attaches a peer link and starts its reader and writer
// goroutines. The engine immediately sends the peer an anti-entropy digest
// so a late joiner catches up on history. Connect may be called at any
// time, from any goroutine.
func (e *Engine) Connect(link Link) {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.stopped {
		link.Close()
		return
	}
	p := e.newPeer(link, newOutq(e.queueDepth, func() { link.Close() }))
	p.send, p.stream = p.enqueue, p.streamPaced
	p.start(&e.wg, link.Send, nil, e.drained)
	e.wg.Add(1)
	go p.reader()
	e.ctl(func() { e.attach(p) })
}

// newPeer wraps a link; the driver attaching it sets send and stream.
func (e *Engine) newPeer(link Link, q *outq) *peer {
	p := &peer{outq: q, eng: e, link: link, offers: make(map[ident.SiteID]snapOffer)}
	if rr, ok := link.(ReplayRouter); ok {
		p.routes = rr.RoutesReplay()
	}
	return p
}

// attach registers a peer with the actor and sends it the opening digest.
func (e *Engine) attach(p *peer) {
	e.peers = append(e.peers, p)
	f, err := EncodeSyncReq(e.site, e.buf.Clock())
	if err != nil {
		e.encodeFailed(1, err)
		return
	}
	p.send(f)
	p.lastSyncAt = e.now()
	e.digestsSent.Add(1)
}

// Acked returns the delivered clock site last acknowledged to this engine
// — its newest digest, or the stamp of its newest delivered edit — empty
// when site is no member (never heard from, or dropped at the frontier
// cap; a new digest brings it back), nil after Stop. An archivist handing
// a document over reads it to learn when its successor holds everything
// it held.
func (e *Engine) Acked(site ident.SiteID) vclock.VC {
	ch := make(chan vclock.VC, 1)
	if !e.ctl(func() { ch <- e.acked[site].Clone() }) {
		return nil
	}
	select {
	case vc := <-ch:
		return vc
	case <-e.done:
		return nil
	}
}

// Clock returns the delivered vector clock (nil after Stop). Entry s is the
// count of site s's operations applied here; comparing clocks across
// engines is the quiescence test.
func (e *Engine) Clock() vclock.VC {
	ch := make(chan vclock.VC, 1)
	if !e.ctl(func() { ch <- e.buf.Clock() }) {
		return nil
	}
	select {
	case vc := <-ch:
		return vc
	case <-e.done:
		return nil
	}
}

// Err returns the first replica apply, log or encode error, if any —
// including after Stop, so teardown-order checks stay truthful: the causal
// delivery contract was violated upstream, the durable log could not be
// written, or a frame could not be encoded (EngineStats.EncodeErrs).
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
}

// Stop shuts the engine down: the actor stamps and flushes everything
// already accepted, peer writers drain their queues (bounded by
// stopDrainTimeout), links close, goroutines drain, and the durable log
// is synced and closed. Stop blocks until everything has wound down; it
// is idempotent.
func (e *Engine) Stop() {
	e.lifeMu.Lock()
	if !e.stopped {
		e.stopped = true
		close(e.done)
	}
	e.lifeMu.Unlock()
	e.wg.Wait()
}

// ctl queues a control closure for the actor, reporting false if the
// engine already stopped.
//
//treedoc:actorexec
func (e *Engine) ctl(fn func()) bool { return e.post(command{ctl: fn}) }

// post hands one command to the actor, reporting false if the engine
// already stopped. An engine without an inbox is driven by a Stepper,
// whose caller is the actor: the command runs inline, as one whole step.
func (e *Engine) post(cmd command) bool {
	select {
	case <-e.done:
		return false
	default:
	}
	if e.inbox == nil {
		e.handle(cmd)
		e.endStep()
		return true
	}
	select {
	case e.inbox <- cmd:
		return true
	case <-e.done:
		return false
	}
}

// run is the production driver's actor loop: the only goroutine touching
// buf, the retained log, batch, peers, the durable log and the compaction
// barrier. Everything it does is handle, endStep, tick and shutdown — the
// same four calls a Stepper makes.
//
//treedoc:actorloop
func (e *Engine) run() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.syncEvery)
	defer ticker.Stop()
	for {
		select {
		case cmd := <-e.inbox:
			e.handle(cmd)
			// Opportunistic drain: batch whatever else is already queued
			// before flushing, without blocking.
		drain:
			for len(e.batch) < batchSize {
				select {
				case cmd := <-e.inbox:
					e.handle(cmd)
				default:
					break drain
				}
			}
			e.endStep()
		case <-ticker.C:
			e.tick()
		case <-e.done:
			e.shutdown()
			return
		}
	}
}

// endStep closes a run of handled commands: decide any round of this
// engine's that became stable, then frame and fan out the batch.
func (e *Engine) endStep() {
	e.decideRounds()
	e.flush()
}

// tick is one sync interval's duties.
func (e *Engine) tick() {
	e.gcSnapAssemblies()
	e.flattenTick()
	e.flush()
	e.maybeCompact()
	e.advanceFloor(false)
	e.settled = [2]vclock.VC{e.buf.Clock(), e.settled[0]}
	e.syncAll()
}

// shutdown is the actor's last step, after done has closed.
func (e *Engine) shutdown() {
	// Best-effort drain: Broadcast returned nil for anything already in
	// the inbox, so stamp and flush it rather than losing it — a stopped
	// engine's unsent ops are unrecoverable, unlike the drop-and-heal
	// losses anti-entropy repairs.
	for {
		select {
		case cmd := <-e.inbox:
			e.handle(cmd)
			continue
		default:
		}
		break
	}
	// A stopped author can never decide, so its rounds would freeze their
	// regions everywhere: abort them, behind everything already accepted.
	e.abortOwn()
	e.endStep()
	// Frames are in the peer queues; let the writers drain them.
	close(e.drained)
	if e.log != nil {
		if err := e.log.Close(); err != nil {
			e.setErr(err)
		}
	}
}

// handle runs one command on the actor. Inbound frames are dispatched
// here, once, on their decoded type.
func (e *Engine) handle(cmd command) {
	if cmd.ctl != nil {
		cmd.ctl()
		return
	}
	for _, op := range cmd.ops {
		e.emit(op)
	}
	switch f := cmd.frame.(type) {
	case *OpsFrame:
		e.ingest(f.Msgs)
	case *SyncReqFrame:
		e.handleSyncReq(f, cmd.from)
	case *SnapChunkFrame:
		e.handleSnapChunk(f)
	case *FlatAckFrame:
		e.handleFlatAck(f)
	}
}

// emit stamps one local operation — a caller's, or a flatten round's this
// engine minted — retains it and queues it for the batch.
func (e *Engine) emit(op core.Op) {
	m := e.buf.Stamp(op)
	e.record(m)
	e.batch = append(e.batch, m)
	e.recordOp(op)
	if len(e.batch) >= batchSize {
		e.flush()
	}
}

// record retains one stamped message for anti-entropy and appends it to
// the durable log when one is configured. The first append failure
// disables the log for the rest of the session: writing successors of a
// missing record would leave a causal hole that restart replay applies
// over (corrupting the tree), whereas a clean prefix merely restarts the
// replica further in the past, which anti-entropy heals. Err reports the
// lost durability.
func (e *Engine) record(m causal.Message) {
	e.retained.Append(m)
	e.sinceSnap++
	if e.log == nil || e.logBroken {
		return
	}
	body, err := EncodeMsgBody(m)
	if err != nil {
		e.logBroken = true
		e.setErr(fmt.Errorf("transport: log encode: %w", err))
		return
	}
	if err := e.log.Append(m.From, m.TS.Get(m.From), body); err != nil {
		e.logBroken = true
		e.setErr(err)
	}
}

// ingest feeds a frame's stamped messages to the causal buffer and applies
// what they make deliverable as one run: N in-order ops, one ApplyBatch of N.
// Delivered messages are retained: a replica can heal a third party's loss.
func (e *Engine) ingest(msgs []causal.Message) {
	ready := make([]causal.Message, 0, len(msgs))
	for _, m := range msgs {
		deliverable, err := e.buf.Add(m)
		if err != nil {
			e.wireErrs.Add(1)
		}
		ready = append(ready, deliverable...)
	}
	if n := e.buf.Prune(maxPending); n > 0 {
		e.pruned.Add(uint64(n))
	}
	e.deliver(ready)
}

// deliver records causally-ready messages and applies their ops as one
// run. Each sender is a member from its first delivered message on:
// through a hub its digests reach only a sample of the group, and a round
// this engine authors must wait for every writer whose edits it applies.
func (e *Engine) deliver(msgs []causal.Message) {
	ops := e.opScratch[:0]
	for _, m := range msgs {
		if e.acked[m.From].Get(m.From) < m.TS.Get(m.From) {
			e.acked[m.From] = m.TS
		}
		e.record(m)
		if op, ok := m.Payload.(core.Op); ok {
			ops = append(ops, op)
		}
	}
	took := e.apply(ops)
	e.applied.Add(uint64(len(took)))
	for _, op := range took {
		e.recordOp(op)
	}
	// Drop the op references (each pins an identifier path) but keep the
	// grown capacity for the next delivered run.
	clear(ops)
	e.opScratch = ops[:0]
}

// apply is the one apply loop, for live delivery and log replay alike: it
// hands ops to the replica's ApplyBatch in order. A failing op is
// tolerated — the error is latched, the op skipped, and the rest of the
// run continues. It returns the ops that took effect, compacted in place.
func (e *Engine) apply(ops []core.Op) []core.Op {
	took := ops[:0]
	for len(ops) > 0 {
		n, err := e.doc.ApplyBatch(ops)
		took = append(took, ops[:n]...)
		if err == nil {
			break
		}
		e.setErr(fmt.Errorf("transport: apply s%d#%d: %w", ops[n].Site, ops[n].Seq, err))
		ops = ops[n+1:]
	}
	return took
}

// gap returns how far behind clock is relative to ahead: the number of
// operations ahead covers that clock does not.
func gap(ahead, clock vclock.VC) uint64 {
	var n uint64
	for s, a := range ahead {
		if c := clock.Get(s); a > c {
			n += a - c
		}
	}
	return n
}

// vcEqual reports clock equality (mutual domination).
func vcEqual(a, b vclock.VC) bool {
	return a.Dominates(b) && b.Dominates(a)
}

// handleSyncReq answers an anti-entropy digest, the one pull; this engine
// alone decides the answer from the digest's clock. A requester below the
// truncation floor — or further behind than the snapshot threshold —
// receives the barrier snapshot followed by the retained suffix; anyone
// else gets the retained messages their clock does not cover, chunked
// into frames. The reply goes back through the peer the request arrived
// on (which may be a relay hub; the causal buffers at the edges
// deduplicate). Replies to a torn-down link are skipped: encoding frames
// for a dead peer only wastes cycles and inflates the drop counter.
func (e *Engine) handleSyncReq(req *SyncReqFrame, from *peer) {
	if from == nil || from.dead() || req.From == e.site {
		return
	}
	from.noteHeard(req.Clock)
	e.acked[req.From] = req.Clock
	// Below the truncation floor some ops the requester is missing no
	// longer exist as messages; past the threshold replaying them is the
	// slow way, and a barrier is taken on demand if none exists yet. Either
	// way: snapshot, then the retained suffix.
	snapshot := (e.truncVC != nil && !req.Clock.Dominates(e.truncVC)) ||
		(e.snapThreshold > 0 && gap(e.buf.Clock(), req.Clock) >= uint64(e.snapThreshold) && (e.snapData != nil || e.compactNow()))
	e.answer(from, req.Clock, req.From, snapshot)
}

// installSnapshot installs a reassembled catch-up snapshot (see
// handleSnapChunk): if its version dominates local state, the replica
// adopts it, the causal clock advances to cover it, buffered successors
// deliver, and the snapshot becomes this engine's own compaction barrier
// (persisted when a log is configured).
func (e *Engine) installSnapshot(data []byte) {
	version, err := e.doc.InstallSnapshot(data)
	if err != nil {
		if errors.Is(err, core.ErrStaleSnapshot) {
			// Concurrent local edits the snapshot does not cover: not
			// corrupt, just not installable; anti-entropy converges the
			// slow way.
			return
		}
		// Undecodable or otherwise malformed snapshot bytes: count it, or
		// a never-converging catch-up is undiagnosable.
		e.wireErrs.Add(1)
		return
	}
	e.snapsInstalled.Add(1)
	delivered := e.buf.Advance(version)
	// It never held the messages below the snapshot: the floor moves to it.
	if e.adoptBarrier(data, version) {
		e.truncateTo(version)
	}
	e.deliver(delivered)
}

// adoptBarrier makes (data, version) the serving barrier, stored first
// when a durable log is configured; it reports false if the store failed.
// The floor, not the barrier, decides what is truncated.
func (e *Engine) adoptBarrier(data []byte, version vclock.VC) bool {
	if e.log != nil {
		if err := e.log.WriteSnapshot(data, version); err != nil {
			e.setErr(err)
			return false
		}
		// A stored snapshot supersedes every record below it, including
		// any suffix a failed append hole-punched out of the log — the
		// directory is consistent again, so appending may resume.
		e.logBroken = false
	}
	e.snapData, e.snapVC = data, version.Clone()
	e.sinceSnap = e.retained.CountAbove(version)
	return true
}

// truncateTo makes floor the truncation floor: what it covers leaves the
// in-memory log and the sealed segments.
func (e *Engine) truncateTo(floor vclock.VC) {
	e.truncVC = floor.Clone()
	if e.log != nil {
		if _, err := e.log.Compact(floor); err != nil {
			e.setErr(err)
		}
	}
	e.retained.Truncate(floor)
}

// advanceFloor raises the truncation floor to the stable frontier, the
// meet of the barrier and every member's acknowledged clock: every member
// has delivered what lies below it, so no digest asks for what truncation
// drops. A silent member would pin it for good, so when capped every
// member whose acknowledgement falls short of the barrier is dropped and
// counted instead, and the floor reaches the barrier; back again, such a
// member catches up by snapshot.
func (e *Engine) advanceFloor(capped bool) {
	if vcEqual(e.truncVC, e.snapVC) {
		return // at the barrier (or no barrier): the floor goes no higher
	}
	floor := e.snapVC.Clone()
	for site, vc := range e.acked {
		if capped && !vc.Dominates(e.snapVC) {
			delete(e.acked, site)
			e.frontierDrops.Add(1)
			continue
		}
		for s, n := range floor {
			floor[s] = min(n, vc.Get(s))
		}
	}
	if e.truncVC.Dominates(floor) {
		return
	}
	floor.Merge(e.truncVC)
	e.truncateTo(floor)
}

// maybeCompact runs the compaction policy: once enough messages have
// accumulated past the barrier, snapshot the replica and adopt the
// snapshot as the new barrier. It runs from the anti-entropy ticker
// only — Snapshot() is O(document), and attempting it after every inbox
// drain would re-marshal the document continuously whenever racing local
// edits (or a tolerated apply error) keep the version and the delivered
// clock apart.
func (e *Engine) maybeCompact() {
	if e.compactEvery <= 0 || e.sinceSnap < e.compactEvery {
		return
	}
	e.compactNow()
}

// compactNow snapshots the replica and adopts it as the barrier. The
// snapshot is only adopted when its version equals the delivered clock
// exactly: a caller may have applied a local edit whose Broadcast the
// actor has not stamped yet, and a barrier covering an unstamped
// operation would hand peers a clock entry for a message that does not
// exist. Skipping is cheap — the next flush retries once the stamp lands.
func (e *Engine) compactNow() bool {
	data, version, err := e.doc.Snapshot()
	if err != nil {
		e.setErr(fmt.Errorf("transport: snapshot: %w", err))
		return false
	}
	if len(version) == 0 {
		// An empty document has nothing to snapshot, and peers reject a
		// snap frame with an empty version as malformed.
		return false
	}
	if !vcEqual(version, e.buf.Clock()) {
		return false
	}
	// The floor catches up with the barrier being replaced (never the new
	// one, this engine's own clock), at the cap once a compaction's worth
	// of messages followed it: a silent member's one generation of slack.
	e.advanceFloor(e.sinceSnap >= cmp.Or(e.compactEvery, defaultCompactEvery))
	return e.adoptBarrier(data, version)
}

// errPeerGone stops a paced snapshot stream whose peer or engine is going
// away.
var errPeerGone = errors.New("transport: peer gone")

// streamSnapshot streams the barrier snapshot, then the already-encoded
// suffix frames, to one peer — one ordered stream, so the snapshot lands
// before the operations above it. How it leaves is the peer's stream (see
// peer): paced by blocking puts on a queued link, inline on a stepped one.
// At most one stream runs per peer (answer checks); the snapshot slice and
// the frames are immutable, so a pacing goroutine reads them safely after
// the actor has moved on.
func (e *Engine) streamSnapshot(to *peer, dst ident.SiteID, suffix [][]byte) {
	to.offers[dst] = snapOffer{e.snapVC, e.now()}
	to.chunking.Store(true) // only the actor sets it; the stream clears it
	e.snapsSent.Add(1)
	data, version := e.snapData, e.snapVC.Clone()
	to.stream(func(put func(frame []byte) bool) {
		defer to.chunking.Store(false)
		address := func(frame []byte) error {
			if !put(directed(to, dst, frame)) {
				return errPeerGone
			}
			return nil
		}
		if _, err := stateFrames(e.site, data, version, nil, address); err != nil {
			if !errors.Is(err, errPeerGone) {
				e.wireErrs.Add(1)
			}
			return
		}
		for _, f := range suffix {
			if address(f) != nil {
				return
			}
		}
	})
}

// answer sends one requester the state since its clock: the barrier
// snapshot first when the caller found the requester needs one, then every
// retained message the clock does not cover — above the snapshot, when the
// requester can install it — chunked into frames encoded for this request
// alone (see encodeMissing).
func (e *Engine) answer(to *peer, clock vclock.VC, dst ident.SiteID, snapshot bool) {
	if snapshot {
		last := to.offers[dst]
		recent := e.now().Sub(last.at) < snapResendAfter
		if !recent && !e.snapVC.Dominates(clock) {
			// The requester holds operations the barrier lacks — edits it made
			// while cut off — so it would reject the barrier as stale, and what
			// it is missing below the floor exists nowhere else. Offer a barrier
			// taken now (at the pace snapshots are re-offered: Snapshot is
			// O(document)); if even that does not cover the requester, its own
			// operations have to reach this replica first.
			e.compactNow()
		}
		// The same barrier goes to the same requester at most once per
		// snapResendAfter: a catching-up requester's repeated pulls must not
		// draw a snapshot apiece.
		switch {
		case to.chunking.Load():
			// A stream is in flight on this link, carrying the barrier and its
			// suffix: queuing an answer directly would overtake the snapshot.
			// Drop it; a requester still behind re-digests.
			return
		case e.snapData != nil && !(recent && vcEqual(last.vc, e.snapVC)):
			if e.snapVC.Dominates(clock) {
				clock = e.snapVC // the snapshot installs: ship only what lies above it
			}
		case !clock.Dominates(e.truncVC):
			// Below the floor with its offer still fresh: nothing that follows
			// what it lacks below the floor can deliver — those ops exist
			// nowhere — so a replay would mostly fill its causal buffer. It
			// pulls again.
			return
		default:
			snapshot = false // plain op replay in between offers
		}
	}
	frames := e.encodeMissing(clock) // none when nothing is missing: the snapshot alone
	if snapshot {
		e.streamSnapshot(to, dst, frames)
	} else {
		for _, f := range frames {
			to.send(directed(to, dst, f))
		}
	}
}

// directed addresses one answer frame to its requester when the link
// routes replays (the wrap is a copy of the frame). On a plain link — or
// if the wrap fails, which cannot happen for frames this engine encoded —
// the frame broadcasts as-is.
func directed(to *peer, dst ident.SiteID, frame []byte) []byte {
	if !to.routes {
		return frame
	}
	f, err := encodeReplay(dst, frame)
	if err != nil {
		to.eng.encodeFailed(1, err)
		return frame
	}
	return f
}

// encodeMissing frames one digest answer: the retained messages the clock
// does not cover, below the settle horizon, through the shared state
// encoder. The horizon keeps the newest two ticks of deliveries out:
// those frames are presumed still in flight on the relay path, and a
// requester racing them re-digests if any were truly lost. The log is
// synced first: retransmissions may carry locally stamped operations that
// no flush has synced yet.
func (e *Engine) encodeMissing(clock vclock.VC) [][]byte {
	horizon := e.settled[1]
	missing := slices.DeleteFunc(e.retained.AppendMissing(e.missScratch[:0], clock), func(m causal.Message) bool {
		return m.TS.Get(m.From) > horizon.Get(m.From)
	})
	var frames [][]byte
	if len(missing) > 0 {
		e.syncLog()
		var bytes uint64
		skipped, err := stateFrames(e.site, nil, nil, missing, func(frame []byte) error {
			frames = append(frames, frame)
			bytes += uint64(len(frame))
			return nil
		})
		e.replayOps.Add(uint64(len(missing) - skipped))
		e.replayBytes.Add(bytes)
		e.encodeFailed(skipped, err)
	}
	// Drop the gathered message references (each pins an identifier path)
	// but keep the grown capacity for the next digest answered.
	clear(missing)
	e.missScratch = missing[:0]
	return frames
}

// syncLog flushes appended records to stable storage under FsyncBatch. It
// must run before any frame carrying a locally stamped operation can
// reach a peer — the batch fanout and the anti-entropy retransmission
// path both — or a crash could forget a stamp a peer remembers, and the
// restarted site would re-mint it.
func (e *Engine) syncLog() {
	if e.log != nil && !e.logBroken && e.fsync == FsyncBatch {
		if err := e.log.Sync(); err != nil {
			e.logBroken = true
			e.setErr(err)
		}
	}
}

// flush syncs the durable log (so no peer can see a stamp that is not on
// stable storage), frames the pending batch and fans it out to every live
// peer, then prunes peers whose links died.
func (e *Engine) flush() {
	e.syncLog()
	if len(e.batch) > 0 {
		skipped, err := stateFrames(e.site, nil, nil, e.batch, func(frame []byte) error {
			e.fanout(frame)
			return nil
		})
		e.encodeFailed(skipped, err)
		e.batch = e.batch[:0]
	}
	e.peers = slices.DeleteFunc(e.peers, (*peer).dead)
}

func (e *Engine) fanout(frame []byte) {
	for _, p := range e.peers {
		if !p.dead() {
			p.send(frame)
		}
	}
}

// syncAll treats the digest as a pull request, not a heartbeat: a peer
// link gets one when its heard frontier has announced operations we lack
// for longer than the gap grace (a real loss, not an in-flight delivery),
// or when the keepalive elapses. Everything else — our own writes, replay
// bursts we are absorbing, idle ticks — is suppressed, so a hot document
// sheds the per-tick digest storm and an idle one goes silent. The
// keepalive digest still goes out every keepaliveTicks intervals: it is
// both the advertisement that lets a peer discover a loss it cannot see
// (their clock covers their heard frontier too) and the bound on how long
// a gap digest lost in transit stays unrepaired. The same sweep forgets
// expired snapshot offers, bounding the table.
//
// Suppression never stalls convergence: every replica keepalives, a heard
// keepalive reopens the gap path on whoever is behind, and handleSyncReq
// answers regardless of the answering side's send-side state.
func (e *Engine) syncAll() {
	if len(e.peers) == 0 {
		return
	}
	clock := e.buf.Clock()
	now := e.now()
	keepalive := time.Duration(keepaliveTicks) * e.syncEvery
	grace := time.Duration(gapGraceTicks) * e.syncEvery
	var frame []byte
	for _, p := range e.peers {
		maps.DeleteFunc(p.offers, func(_ ident.SiteID, o snapOffer) bool { return now.Sub(o.at) >= snapResendAfter })
		if p.dead() {
			continue
		}
		gap := p.heardVC != nil && !clock.Dominates(p.heardVC)
		if !gap {
			p.gapSince = time.Time{}
			if now.Sub(p.lastSyncAt) < keepalive {
				e.digestsSuppressed.Add(1)
				continue
			}
		} else {
			if p.gapSince.IsZero() {
				p.gapSince = now
			}
			if now.Sub(p.gapSince) < grace && now.Sub(p.lastSyncAt) < keepalive {
				e.digestsSuppressed.Add(1)
				continue
			}
			p.gapSince = time.Time{}
		}
		if frame == nil {
			var err error
			frame, err = EncodeSyncReq(e.site, clock)
			if err != nil {
				e.encodeFailed(1, err)
				return
			}
		}
		p.send(frame)
		p.lastSyncAt = now
		e.digestsSent.Add(1)
	}
}

// peer is one attached link. Under NewEngine its frames leave through a
// bounded queue drained by a writer goroutine, and a reader goroutine feeds
// inbound frames to the actor (blocking on the inbox is the inbound
// backpressure path). Under a Stepper nothing is ever queued — the embedded
// outq is only the dead flag — sends go straight to the link, which is the
// driver's own queue, and the driver calls receive.
type peer struct {
	*outq
	eng  *Engine
	link Link
	// send takes one frame without blocking; stream runs frames, an ordered
	// run none of which may be dropped, handing it the put that takes them.
	// The driver attaching the link sets both, once, before the peer goes
	// live: enqueue and streamPaced, or sendNow and streamInline.
	send   func(frame []byte)
	stream func(frames func(put func(frame []byte) bool))
	// offers rate-limits snapshot offers per requester: the barrier last
	// offered to each and when; syncAll's sweep forgets expired ones
	// (actor-owned).
	offers map[ident.SiteID]snapOffer
	// lastSyncAt is when this link last received our digest; with no gap
	// to pull against, the next one waits out the keepalive (actor-owned).
	lastSyncAt time.Time
	// gapSince marks when the link's heard frontier first ran ahead of
	// our clock; a gap must outlive gapGraceTicks before it draws a
	// digest, filtering gaps that close via in-flight ops (actor-owned).
	gapSince time.Time
	// routes is set before the peer goes live when the link's far end can
	// deliver a directed kindReplay to its addressed site (ReplayRouter);
	// answers on such links are addressed per requester. Immutable after
	// Connect.
	routes bool
	// heardVC is the merged frontier of every digest received on this
	// link. A hub link relays digests from many sites, so the merge is the
	// link's collective frontier; merging only ever widens it, which makes
	// suppression conservative — any site announcing something we lack
	// reopens our sends (actor-owned).
	heardVC vclock.VC
	// chunking guards the single in-flight snapshot stream to this peer
	// (set by the actor, cleared by the stream).
	chunking atomic.Bool
}

// snapOffer is one barrier snapshot offered to one requester.
type snapOffer struct {
	vc vclock.VC
	at time.Time
}

// noteHeard folds a received digest clock into the link's announced
// frontier (called from the actor's digest handlers only).
func (p *peer) noteHeard(clock vclock.VC) {
	if p.heardVC == nil {
		p.heardVC = vclock.New()
	}
	p.heardVC.Merge(clock)
}

// enqueue is the queued link's send: a full queue drops the frame and
// counts it (anti-entropy will retransmit).
func (p *peer) enqueue(frame []byte) {
	if !p.offer(frame) {
		p.eng.drops.Add(1)
	}
}

// streamPaced is the queued link's stream: a dedicated goroutine paces it
// with blocking puts into the peer queue. The receiver's reassembly is
// strictly in-order, so a chunk dropped by a full queue would void the
// whole sequence — and a queue shallower than the chunk count would void
// every offer, forever. Blocking also bounds the memory in flight to the
// queue depth; only one chunk is encoded at a time.
func (p *peer) streamPaced(frames func(put func(frame []byte) bool)) {
	e := p.eng
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		frames(func(frame []byte) bool { return p.put(frame, e.done) })
	}()
}

// sendNow is the stepped link's send: the link takes every frame as sent.
func (p *peer) sendNow(frame []byte) {
	if p.link.Send(frame) != nil {
		p.fail()
	}
}

// streamInline is the stepped link's stream, emitted as part of the step.
func (p *peer) streamInline(frames func(put func(frame []byte) bool)) {
	frames(func(frame []byte) bool { p.send(frame); return true })
}

// reader fails the peer only on link errors: exiting because the engine
// is shutting down must leave the peer alive, or the writer's stop-time
// drain would be cut short and Broadcast-accepted frames silently lost
// (the writer fails the queue as it finishes, which closes the link and in
// turn unblocks and ends the reader).
func (p *peer) reader() {
	defer p.eng.wg.Done()
	for {
		frame, err := p.link.Recv()
		if err != nil {
			p.fail()
			return
		}
		if !p.receive(frame) {
			return
		}
	}
}

// receive is the one inbound entry point, shared by the reader goroutine
// and a stepping driver: decode the frame and post it to the actor. A
// directed answer is unwrapped first — the address only mattered to the
// routing relay; replay is idempotent, so a stale route heals a different
// replica harmlessly. It reports false once the engine has stopped.
func (p *peer) receive(frame []byte) bool {
	decoded, err := DecodeFrame(frame)
	if rf, ok := decoded.(*ReplayFrame); ok {
		decoded, err = DecodeFrame(rf.Inner)
	}
	if err != nil {
		p.eng.wireErrs.Add(1)
		return true
	}
	return p.eng.post(command{frame: decoded, from: p})
}
