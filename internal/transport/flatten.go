package transport

// Engine-coordinated flatten: the commitment protocol of internal/commit
// (two-phase commit with presumed abort, Section 4.2.1 of the Treedoc
// paper) over the engine's links. The Coordinator and Participant state
// machines run on the actor:
//
//   - Proposals, votes and abort decisions travel as commitment frames
//     (kindFlatPropose / kindFlatVote / kindFlatDecision). They are
//     broadcast to every peer — a relay hub fans them like any frame —
//     and filtered by site id at the receiver; unlike operations they are
//     not retained for anti-entropy.
//
//   - The committed flatten itself does NOT travel as a decision frame.
//     The coordinator executes it locally (Flattener.FlattenOp) and
//     broadcasts it as a stamped OpFlatten operation through the ordinary
//     causal stream. That single choice buys the ordering the paper's
//     Section 4.2.2 ("update of a non-flattened tree") requires: any edit
//     a replica issues after applying the flatten carries a vector clock
//     that covers the flatten op, so causal delivery replays the flatten
//     first at every other replica — and the durable log replays it at
//     the right point on restart.
//
//   - A Yes vote freezes the subtree against local edits
//     (Flattener.LockRegion) until the decision: the abort frame, or the
//     OpFlatten delivery for a commit. Votes are evaluated with the
//     region already frozen, so a racing local edit either lands before
//     the freeze (and is seen by the vote) or is rejected with
//     ErrRegionLocked.
//
//   - In-flight local edits force a No vote: an operation the caller has
//     applied but the actor has not yet stamped is invisible to the edit
//     log, so a participant votes Yes only when the replica's applied
//     version vector equals its delivered clock exactly.
//
// What this does NOT give: tolerance of a coordinator that crashes
// after collecting votes. A participant whose Yes-vote lock gets no
// decision re-sends its vote each deadline; a live coordinator answers
// from its decision memory (presumed abort for forgotten transactions),
// but a permanently dead coordinator leaves the region frozen — the
// classic 2PC blocking case, which the paper also concedes ("any
// distributed commitment protocol from the literature will do"; the
// fault-tolerant variant is deferred to Gray & Lamport). Stopping the
// engine releases its own locks.
//
// Membership: participants are the sites this engine has seen frames
// from within a recency window (plus itself). The protocol is safe for
// any replica that receives the proposal — every receiver votes, and a
// No from any site aborts — but a replica partitioned away during the
// whole round neither votes nor blocks the commit; if it was editing the
// flattened region concurrently, the commitment it never saw cannot
// protect it. The paper's protocol has the same requirement ("the
// operation succeeds only if all sites vote Yes"): flatten assumes known,
// connected membership, and the engine approximates it by recency.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/treedoc/treedoc/internal/commit"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Flattener is the optional replica interface behind engine-coordinated
// flatten (the public Doc and TextBuffer both qualify). FlattenOp
// executes a committed flatten locally and returns the operation to
// broadcast; LockRegion/UnlockRegion freeze a subtree against local edits
// while a Yes vote is outstanding; Version reports the applied version
// vector so the engine can detect local edits it has not stamped yet;
// ColdestSubtree picks cold-subtree proposal candidates.
type Flattener interface {
	Applier
	Version() vclock.VC
	// FlattenOp mints the committed flatten if the replica's local
	// sequence still equals afterSeq; a racing local edit fails the mint
	// with core.ErrMintRaced and the engine retries after the edit's
	// stamp lands — keeping op sequence numbers and causal stamps in
	// lockstep.
	FlattenOp(path ident.Path, afterSeq uint64) (core.Op, error)
	ColdestSubtree(revisions int64, minNodes int) ident.Path
	LockRegion(token uint64, path ident.Path)
	UnlockRegion(token uint64)
}

// coldMinNodes is the smallest subtree ProposeFlattenCold proposes.
const coldMinNodes = 2

// maxDecidedMemory bounds the coordinator's decided-transaction memory
// (the presumed-abort answer store for re-sent votes).
const maxDecidedMemory = 256

// flattenState is the engine's commitment bookkeeping. Actor-owned.
type flattenState struct {
	coord *commit.Coordinator // actor-owned
	part  *commit.Participant // actor-owned
	// locks are the Yes votes awaiting a decision, keyed by transaction.
	locks   map[commit.TxID]*heldLock // actor-owned
	nextTok uint64                    // actor-owned
	// editLog records every stamped or delivered operation since the last
	// applied flatten: the vote's "observed an insert, delete or flatten
	// within the sub-tree" evidence. It resets when a flatten applies
	// (proposals must observe the flatten, so older entries can never be
	// uncovered again) and is pruned as the compaction floor rises.
	editLog []editRec // actor-owned
	// editFloor is the clock below which editLog entries have been pruned
	// (snapshot install, log truncation): a proposal that does not observe
	// at least this much cannot be evaluated and votes No.
	editFloor vclock.VC // actor-owned
	// flattenVC is the delivered clock when the last flatten applied; any
	// proposal must dominate it (a flatten renames identifiers, so it
	// counts as an edit of its whole region).
	flattenVC vclock.VC // actor-owned
	// lastSeen is the membership estimate: engine-monotonic time of the
	// last frame attributable to each site.
	lastSeen map[ident.SiteID]time.Duration // actor-owned
	// decided remembers recent coordinator decisions so re-sent votes for
	// finished transactions get an answer (presumed abort otherwise).
	decided      map[commit.TxID]decision // actor-owned
	decidedOrder []commit.TxID            // actor-owned
	// pendingCommits are commit decisions whose OpFlatten mint is deferred
	// until every locally applied edit has been stamped (the op's sequence
	// number must match its causal stamp).
	pendingCommits []pendingCommit // actor-owned
	// compactPending asks the ticker to keep trying to adopt the flatten
	// epoch as the oplog compaction barrier until the snapshot lands.
	compactPending bool // actor-owned
}

type heldLock struct {
	tok uint64
	// path and obs identify the round this lock answers: a proposal
	// re-using the TxID with a different path or observed clock (a
	// restarted coordinator's counter wrapping back) is a different round
	// and must be re-evaluated, never re-affirmed.
	path ident.Path
	obs  vclock.VC
	// lastPing paces the in-doubt vote resend; commitKnown stops it once
	// a commit decision with the op's stamp arrives. opSeq is the
	// committed OpFlatten's sequence number at the coordinator (from the
	// decision frame): the lock releases once the local clock covers it,
	// whether the operation arrived as an op frame or inside an installed
	// snapshot.
	lastPing    time.Duration
	commitKnown bool
	opSeq       uint64
}

// decision is one remembered coordinator outcome; seq is the committed
// OpFlatten's sequence number (0 for aborts, or for a commit whose mint
// is still pending).
type decision struct {
	committed bool
	seq       uint64
}

type editRec struct {
	site ident.SiteID
	seq  uint64
	id   ident.Packed
}

type pendingCommit struct {
	tx   commit.TxID
	path ident.Path
}

func newFlattenState(e *Engine) *flattenState {
	st := &flattenState{
		coord:    commit.NewCoordinator(e.site),
		locks:    make(map[commit.TxID]*heldLock),
		lastSeen: make(map[ident.SiteID]time.Duration),
		decided:  make(map[commit.TxID]decision),
	}
	// A restarted coordinator must never re-mint a TxID a participant may
	// still hold pre-crash state for; seeding from the engine's clock makes
	// the counter restart-unique.
	st.coord.SeedTxCounter(uint64(e.now().UnixNano()))
	st.part = commit.NewParticipant(e.site, (*flattenResource)(e))
	return st
}

// sinceStart is the engine's monotonic clock, anchoring commitment
// deadlines and membership recency.
func (e *Engine) sinceStart() time.Duration { return e.now().Sub(e.start) }

// nowMs is sinceStart in the milliseconds internal/commit deadlines use.
func (e *Engine) nowMs() int64 { return e.sinceStart().Milliseconds() }

// noteSite refreshes the membership estimate for a site a frame was
// attributable to.
func (e *Engine) noteSite(s ident.SiteID) {
	if e.fl == nil || s == 0 || s == e.site {
		return
	}
	e.fl.lastSeen[s] = e.sinceStart()
}

// participants returns the proposal participant set: this site plus every
// site seen within the recency window. The coordinator waits for exactly
// these votes; any additional receiver of the proposal still votes, and
// its No still aborts.
func (e *Engine) participants() []ident.SiteID {
	now := e.sinceStart()
	window := 3 * e.flattenTimeout
	parts := []ident.SiteID{e.site}
	for s, seen := range e.fl.lastSeen {
		if now-seen <= window {
			parts = append(parts, s)
		}
	}
	return parts
}

// ProposeFlatten starts the commitment protocol to flatten the whole
// document, with this engine as coordinator. It returns once the proposal
// is queued; the round itself is asynchronous — watch FlattensCommitted,
// FlattensAborted and FlattensApplied, or the document's Stats. A
// proposal racing any concurrent edit aborts harmlessly; propose again
// when the document quiesces. The replica must implement Flattener (Doc
// and TextBuffer do).
func (e *Engine) ProposeFlatten() error {
	if e.fl == nil {
		return fmt.Errorf("transport: replica does not support coordinated flatten")
	}
	if !e.ctl(func() { e.startProposal(ident.Path{}) }) {
		return ErrStopped
	}
	return nil
}

// ProposeFlattenCold proposes flattening the most profitable subtree that
// has been quiet for the given number of revisions (drive the revision
// clock with the replica's EndRevision). It reports whether a candidate
// existed; false with a nil error means the document has no cold subtree
// worth flattening right now.
func (e *Engine) ProposeFlattenCold(revisions int) (bool, error) {
	if e.fl == nil {
		return false, fmt.Errorf("transport: replica does not support coordinated flatten")
	}
	ch := make(chan bool, 1)
	if !e.ctl(func() {
		path := e.flat.ColdestSubtree(int64(revisions), coldMinNodes)
		if path == nil {
			ch <- false
			return
		}
		e.startProposal(path)
		ch <- true
	}) {
		return false, ErrStopped
	}
	select {
	case ok := <-ch:
		return ok, nil
	case <-e.done:
		return false, ErrStopped
	}
}

// startProposal opens a commitment round on the actor: register the
// transaction, broadcast the proposal, and cast the coordinator's own
// vote (the coordinator is a participant like everyone else, so its own
// replica locks and votes under the same rules).
func (e *Engine) startProposal(path ident.Path) {
	st := e.fl
	obs := e.buf.Clock()
	tx, _ := st.coord.Propose(path, obs, e.participants(), e.nowMs(), e.flattenTimeout.Milliseconds())
	e.fanoutFrame(kindFlatPropose, &FlatProposeFrame{From: e.site, N: tx.N, Path: path, Obs: obs})
	yes := e.prepareOnActor(commit.Msg{Kind: commit.Prepare, Tx: tx, Path: path, Obs: obs})
	e.processCoordOuts(st.coord.OnVote(e.site, commit.Msg{Kind: commit.Vote, Tx: tx, Yes: yes}))
}

// prepareOnActor evaluates a proposal and casts this replica's vote. The
// region is frozen BEFORE the vote condition is read: any local edit that
// completed before the freeze is visible to the version check, and any
// edit after it is rejected by the lock — so a Yes vote's promise ("the
// region stays as the coordinator observed it until the decision") has no
// race window. A No vote releases the freeze immediately.
func (e *Engine) prepareOnActor(m commit.Msg) bool {
	st := e.fl
	tok := st.nextTok
	st.nextTok++
	e.flat.LockRegion(tok, m.Path)
	out := st.part.OnPrepare(m)
	if !out.Msg.Yes {
		e.flat.UnlockRegion(tok)
		return false
	}
	st.locks[m.Tx] = &heldLock{tok: tok, path: m.Path.Clone(), obs: m.Obs.Clone(), lastPing: e.sinceStart()}
	return true
}

// flattenResource adapts the engine to commit.Resource. ApplyFlatten is
// deliberately a no-op: on this transport the committed flatten applies
// through the causal stream (OpFlatten), not through the decision.
type flattenResource Engine

// UneditedSince implements the vote condition of Section 4.2.1 over the
// engine's state: vote Yes only if this replica has delivered everything
// the coordinator observed, can still evaluate that far back (no pruned
// evidence, no flatten beyond obs), holds no applied-but-unstamped local
// edit, and has recorded no operation beyond obs inside the subtree.
//
// entry points (handleFlatPropose/Vote/Decision) all run on the actor
//
//treedoc:actorsafe invoked synchronously by the commit participant, whose
func (r *flattenResource) UneditedSince(path ident.Path, obs vclock.VC) bool {
	e := (*Engine)(r)
	st := e.fl
	clock := e.buf.Clock()
	if !clock.Dominates(obs) {
		return false // cannot evaluate the coordinator's view of the region
	}
	if st.flattenVC != nil && !obs.Dominates(st.flattenVC) {
		return false // an applied flatten renamed identifiers beyond obs
	}
	if st.editFloor != nil && !obs.Dominates(st.editFloor) {
		return false // evidence below the compaction floor no longer exists
	}
	if !vcEqual(e.flat.Version(), clock) {
		return false // in-flight local edits the actor has not stamped yet
	}
	var id ident.Path // one scratch for the scan: the log holds identifiers packed
	for _, l := range st.editLog {
		if l.seq > obs.Get(l.site) {
			if id = l.id.AppendPath(id[:0]); ident.RegionCompare(id, path) == 0 {
				return false
			}
		}
	}
	return true
}

// ApplyFlatten implements commit.Resource; see flattenResource.
func (r *flattenResource) ApplyFlatten(ident.Path) error { return nil }

// handleFlatPropose votes on a proposal from another coordinator.
func (e *Engine) handleFlatPropose(f *FlatProposeFrame) {
	if e.fl == nil || f.From == e.site {
		return
	}
	e.noteSite(f.From)
	tx := commit.TxID{Coord: f.From, N: f.N}
	if l, held := e.fl.locks[tx]; held {
		if l.path.Equal(f.Path) && vcEqual(l.obs, f.Obs) {
			// Duplicate of the round we already voted Yes in: re-affirm.
			e.sendVote(tx, true)
			return
		}
		// Same TxID, different round: a coordinator that lost its counter
		// re-minted the id. The old round died with that coordinator, so
		// its lock is released (abort) and the new round evaluated from
		// scratch — re-affirming blindly would skip the vote condition.
		e.releaseLock(tx, false)
	}
	yes := e.prepareOnActor(commit.Msg{Kind: commit.Prepare, Tx: tx, Path: f.Path, Obs: f.Obs})
	e.sendVote(tx, yes)
}

// sendVote broadcasts a vote frame; only the coordinator consumes it.
func (e *Engine) sendVote(tx commit.TxID, yes bool) {
	e.fanoutFrame(kindFlatVote, &FlatVoteFrame{From: e.site, Coord: tx.Coord, N: tx.N, Yes: yes})
}

// fanoutFrame encodes one commitment frame and sends it to every live
// peer; a value that will not encode is counted and sent to no one.
func (e *Engine) fanoutFrame(kind byte, f frame) {
	frame, err := encodeFrame(kind, f)
	if err != nil {
		e.wireErrs.Add(1)
		return
	}
	e.fanout(frame)
}

// handleFlatVote ingests a vote addressed to this coordinator. Votes for
// transactions no longer in flight — a participant querying an in-doubt
// lock, or a frame delayed past the decision — are answered from the
// decision memory, presuming abort for anything forgotten: the classic
// presumed-abort recovery that lets a participant release a lock whose
// decision frame was lost.
func (e *Engine) handleFlatVote(f *FlatVoteFrame, from *peer) {
	if e.fl == nil || f.From == e.site {
		return
	}
	e.noteSite(f.From)
	if f.Coord != e.site {
		return
	}
	st := e.fl
	tx := commit.TxID{Coord: f.Coord, N: f.N}
	if st.coord.InFlight(tx) {
		e.processCoordOuts(st.coord.OnVote(f.From, commit.Msg{Kind: commit.Vote, Tx: tx, Yes: f.Yes}))
		return
	}
	if from == nil || from.dead() {
		return
	}
	dec := st.decided[tx] // zero value = presumed abort
	if frame, err := encodeFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: f.N, Commit: dec.committed, Seq: dec.seq}); err == nil {
		from.trySend(frame)
	} else {
		e.wireErrs.Add(1)
	}
}

// handleFlatDecision applies a coordinator's decision to a lock this
// replica holds. Abort releases the freeze with no other effect. Commit
// marks the outcome and the flatten's sequence number as known: the
// freeze holds until the local clock covers the OpFlatten — normally its
// delivery through the causal stream, but an installed snapshot that
// absorbed the operation counts too. Releasing on the frame alone would
// let a local edit slip in un-ordered against the flatten. An abort for
// a lock whose commit is already known is stale (a forgetful coordinator
// answering an old query) and is ignored: a commit outcome, once seen,
// is authoritative.
func (e *Engine) handleFlatDecision(f *FlatDecisionFrame) {
	if e.fl == nil || f.From == e.site {
		return
	}
	e.noteSite(f.From)
	tx := commit.TxID{Coord: f.From, N: f.N}
	l, ok := e.fl.locks[tx]
	if !ok {
		return
	}
	switch {
	case f.Commit:
		l.commitKnown = true
		if f.Seq > 0 {
			l.opSeq = f.Seq
		}
		e.releaseCoveredLocks()
	case l.commitKnown && l.opSeq > 0:
		// Stale presumed-abort for a commit whose stamp we know: ignore —
		// the covered-lock sweep resolves it once the durable OpFlatten
		// (or a snapshot containing it) arrives. Without the stamp we
		// cannot self-resolve, so the coordinator's current word, abort,
		// is accepted below (the documented amnesia window).
	default:
		e.releaseLock(tx, false)
	}
}

// releaseCoveredLocks releases every committed lock whose OpFlatten the
// local clock already covers — delivered as an operation (the usual
// path, also handled by releaseLocksFor) or absorbed into an installed
// snapshot, which is the path that would otherwise leak the lock
// forever.
func (e *Engine) releaseCoveredLocks() {
	if e.fl == nil {
		return
	}
	clock := e.buf.Clock()
	for tx, l := range e.fl.locks {
		if l.commitKnown && l.opSeq > 0 && clock.Get(tx.Coord) >= l.opSeq {
			e.releaseLock(tx, true)
		}
	}
}

// processCoordOuts turns coordinator state-machine output into transport
// actions. The only outs a live coordinator emits after Propose are
// decisions (To 0, broadcast).
func (e *Engine) processCoordOuts(outs []commit.Out) {
	for _, o := range outs {
		if o.Msg.Kind == commit.Decision {
			e.decideLocal(o.Msg)
		}
	}
}

// decideLocal finalises a round this engine coordinated: remember the
// outcome (for re-sent votes), and either queue the OpFlatten mint
// (commit — the decision frame is broadcast by the mint, once the
// operation's sequence number exists to put in it) or broadcast the
// abort and release the coordinator's own lock.
func (e *Engine) decideLocal(m commit.Msg) {
	st := e.fl
	if m.Commit {
		e.flattensCommitted.Add(1)
		st.remember(m.Tx, decision{committed: true})
		st.pendingCommits = append(st.pendingCommits, pendingCommit{tx: m.Tx, path: m.Path.Clone()})
		e.mintPendingFlattens()
		return
	}
	e.flattensAborted.Add(1)
	st.remember(m.Tx, decision{})
	e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: m.Tx.N, Path: m.Path})
	e.releaseLock(m.Tx, false)
}

// mintPendingFlattens executes committed flattens whose mint had to wait.
// The wait: an OpFlatten's sequence number is assigned by the replica and
// its causal stamp by the actor, and the two must agree — so the mint is
// deferred while any locally applied edit is still waiting to be stamped
// (its Broadcast is in flight towards the actor). The commit's region
// lock stays held meanwhile, so the region itself cannot move; the actor
// retries after every inbox drain and on every tick.
func (e *Engine) mintPendingFlattens() {
	if e.fl == nil || len(e.fl.pendingCommits) == 0 {
		return
	}
	st := e.fl
	for len(st.pendingCommits) > 0 {
		pc := st.pendingCommits[0]
		clock := e.buf.Clock()
		if !vcEqual(e.flat.Version(), clock) {
			return
		}
		op, err := e.flat.FlattenOp(pc.path, clock.Get(e.site))
		if errors.Is(err, core.ErrMintRaced) {
			// A local edit slipped in between the readiness check and the
			// mint (the replica's own lock makes this atomic, so the race
			// was out-of-region); retry once its stamp lands.
			return
		}
		if err != nil {
			// The committed flatten could not be executed (the region path
			// vanished — only possible if the protocol's guarantees were
			// violated upstream). Surface it loudly, and announce the round
			// as aborted: no operation will ever arrive, so participants
			// holding locks must not wait for one.
			e.setErr(fmt.Errorf("transport: flatten commit %v at %v: %w", pc.tx, pc.path, err))
			st.remember(pc.tx, decision{})
			e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: pc.tx.N, Path: pc.path})
		} else {
			m := e.buf.Stamp(op)
			e.record(m)
			e.batch = append(e.batch, m)
			// Now the operation has a stamp, the commit decision can name
			// it: participants release their locks once their clocks cover
			// (site, seq), even if the op reaches them inside a snapshot.
			st.remember(pc.tx, decision{committed: true, seq: op.Seq})
			e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: pc.tx.N, Commit: true, Seq: op.Seq, Path: pc.path})
			e.afterFlattenApplied()
		}
		e.releaseLock(pc.tx, true)
		st.pendingCommits = st.pendingCommits[1:]
	}
}

// recordOp feeds the vote bookkeeping for an operation that has taken
// effect here: a locally broadcast one (called from the actor right after
// stamping) or a delivered one.
func (e *Engine) recordOp(op core.Op) {
	if op.Kind == core.OpFlatten {
		// A delivered OpFlatten is the commit taking effect here; a local one
		// is a caller broadcasting Doc.FlattenOp directly, outside the engine's
		// own commitment, and is treated like any applied flatten.
		e.releaseLocksFor(op.Site, op.ID)
		e.afterFlattenApplied()
		return
	}
	e.fl.editLog = append(e.fl.editLog, editRec{site: op.Site, seq: op.Seq, id: op.ID})
}

// onRemoteOpDelivered is recordOp for a delivered remote operation, whose
// issuer is thereby seen alive.
func (e *Engine) onRemoteOpDelivered(op core.Op) {
	e.noteSite(op.Site)
	e.recordOp(op)
}

// afterFlattenApplied runs once a flatten has taken effect on the local
// replica (minted or delivered): anchor the flatten clock, reset the edit
// log, and make the flatten epoch the oplog compaction barrier — the
// snapshot taken here is what lets a post-flatten joiner skip every
// pre-flatten operation.
func (e *Engine) afterFlattenApplied() {
	st := e.fl
	st.flattenVC = e.buf.Clock()
	st.editLog = st.editLog[:0]
	e.flattensApplied.Add(1)
	if e.snap != nil {
		st.compactPending = true
		if vcEqual(e.flat.Version(), e.buf.Clock()) && e.compactNow() {
			st.compactPending = false
		}
	}
}

// releaseLocksFor releases every lock matching an applied flatten (its
// coordinator and subtree), completing those transactions at this
// participant.
func (e *Engine) releaseLocksFor(coord ident.SiteID, id ident.Packed) {
	for tx, l := range e.fl.locks {
		if tx.Coord == coord && ident.Pack(l.path) == id {
			e.releaseLock(tx, true)
		}
	}
}

// releaseLock completes one transaction at this participant: the state
// machine hears the decision and the replica's region unfreezes.
func (e *Engine) releaseLock(tx commit.TxID, committed bool) {
	st := e.fl
	l, ok := st.locks[tx]
	if !ok {
		return
	}
	if err := st.part.OnDecision(commit.Msg{Kind: commit.Decision, Tx: tx, Path: l.path, Commit: committed}); err != nil {
		e.setErr(err)
	}
	e.flat.UnlockRegion(l.tok)
	delete(st.locks, tx)
}

// releaseAllLocks abandons every open vote on engine stop: a stopped
// engine can never receive a decision, and a region frozen forever is
// worse than an abandoned vote (the coordinator's deadline aborts the
// round without us).
func (e *Engine) releaseAllLocks() {
	if e.fl == nil {
		return
	}
	for _, tx := range e.fl.lockedTxs() {
		e.releaseLock(tx, false)
	}
}

// flattenTick is the per-sync-tick commitment work: coordinator
// deadlines, in-doubt vote resends, deferred mints, the flatten-epoch
// compaction retry, and chunked-snapshot assembly GC.
func (e *Engine) flattenTick() {
	e.gcSnapAssemblies()
	if e.fl == nil {
		return
	}
	st := e.fl
	e.processCoordOuts(st.coord.Tick(e.nowMs()))
	e.releaseCoveredLocks()
	e.resendDoubtVotes()
	e.mintPendingFlattens()
	if st.compactPending && e.snap != nil && vcEqual(e.flat.Version(), e.buf.Clock()) && e.compactNow() {
		st.compactPending = false
	}
}

// resendDoubtVotes re-sends the Yes vote for locks that have waited a
// full deadline without a resolving answer, querying the coordinator: a
// live one answers from its decision memory (presumed abort for
// forgotten transactions), releasing locks whose decision frame was
// lost. A lock stops querying only once it can resolve on its own —
// the commit is known AND the OpFlatten's stamp is known, so the
// covered-lock sweep will release it; a commit answer that predates the
// mint (seq still 0) keeps the query loop alive until the definitive
// answer arrives.
func (e *Engine) resendDoubtVotes() {
	now := e.sinceStart()
	for _, tx := range e.fl.lockedTxs() {
		l := e.fl.locks[tx]
		if (l.commitKnown && l.opSeq > 0) || now-l.lastPing < e.flattenTimeout {
			continue
		}
		l.lastPing = now
		e.sendVote(tx, true)
	}
}

// pruneEditLog drops vote evidence the compaction floor covers and raises
// the evaluation floor to match: entries at or below the floor can never
// trigger a No (an evaluable proposal observes at least the floor), so
// the edit log stays bounded by the same mechanism that bounds the
// message log.
func (e *Engine) pruneEditLog(floor vclock.VC) {
	if e.fl == nil {
		return
	}
	st := e.fl
	if st.editFloor == nil {
		st.editFloor = vclock.New()
	}
	st.editFloor.Merge(floor)
	kept := st.editLog[:0]
	for _, l := range st.editLog {
		if l.seq > floor.Get(l.site) {
			kept = append(kept, l)
		}
	}
	for i := len(kept); i < len(st.editLog); i++ {
		st.editLog[i] = editRec{}
	}
	st.editLog = kept
}

// lockedTxs lists the open votes in transaction order. The sweeps that
// send a frame or unfreeze a region per lock walk this instead of the map:
// a schedule replays frame for frame only if nothing the engine emits
// depends on map iteration order.
func (st *flattenState) lockedTxs() []commit.TxID {
	txs := make([]commit.TxID, 0, len(st.locks))
	for tx := range st.locks {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].Less(txs[j]) })
	return txs
}

// remember stores a coordinator decision, bounded.
func (st *flattenState) remember(tx commit.TxID, dec decision) {
	if _, ok := st.decided[tx]; !ok {
		st.decidedOrder = append(st.decidedOrder, tx)
		if len(st.decidedOrder) > maxDecidedMemory {
			delete(st.decided, st.decidedOrder[0])
			st.decidedOrder = st.decidedOrder[1:]
		}
	}
	st.decided[tx] = dec
}
