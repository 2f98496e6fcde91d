package transport

// Engine-coordinated flatten: the commitment procedure that makes flatten
// safe (Section 4.2.1 of the Treedoc paper) — "if this site observes the
// execution of an insert, delete or flatten within the sub-tree to be
// flattened, that site votes No to commitment, otherwise it votes Yes. The
// operation succeeds only if all sites vote Yes, otherwise it has no
// effect" — as two-phase commit with presumed abort over the engine's
// links. The whole protocol lives in this file and runs on the actor: one
// table of the rounds this engine coordinates (flattenState.rounds), one
// of the Yes votes it has cast (flattenState.locks), one clock
// (Engine.now).
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
//     applied but the actor has not yet stamped is not in the retained
//     log yet, so a participant votes Yes only when the replica's applied
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
// Membership: participants are this site and the members of the
// stability frontier — every site whose digest or delivered edit put a
// clock in Engine.acked, the same table the truncation floor reads. The
// paper's rule ("the operation succeeds only if all sites vote Yes")
// needs a known membership, and this is it: a member partitioned away
// blocks every round, each aborting at its deadline, until it returns or
// the frontier cap drops it (advanceFloor). Any other receiver of a
// proposal votes too, and a No from any site aborts.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Flattener is the replica's part in engine-coordinated flatten. FlattenOp
// executes a committed flatten locally and returns the operation to
// broadcast; LockRegion/UnlockRegion freeze a subtree against local edits
// while a Yes vote is outstanding; Version reports the applied version
// vector so the engine can detect local edits it has not stamped yet;
// ColdestSubtree picks cold-subtree proposal candidates.
type Flattener interface {
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

// maxDecidedMemory bounds how many decided rounds the coordinator
// remembers (the presumed-abort answer store for re-sent votes).
const maxDecidedMemory = 256

// txID identifies a flatten transaction: the coordinating site and that
// site's round number.
type txID struct {
	coord ident.SiteID
	n     uint64
}

// compare orders transaction ids by coordinator, then number. Whatever the
// engine emits per transaction leaves in this order, never in map order: a
// schedule replays frame for frame only if emission is a function of state.
func (t txID) compare(u txID) int {
	if c := cmp.Compare(t.coord, u.coord); c != 0 {
		return c
	}
	return cmp.Compare(t.n, u.n)
}

func (t txID) String() string { return fmt.Sprintf("tx(s%d#%d)", t.coord, t.n) }

// flattenState is the engine's commitment bookkeeping. Actor-owned.
type flattenState struct {
	// rounds are the transactions this engine coordinates, open or decided;
	// decidedOrder lists the decided ones oldest first, so the memory of
	// them stays within maxDecidedMemory.
	rounds       map[txID]*round // actor-owned
	decidedOrder []txID          // actor-owned
	// nextTx numbers this coordinator's rounds. It starts at the engine's
	// clock, so a restarted coordinator never re-mints a txID a participant
	// may still hold pre-crash state for.
	nextTx uint64 // actor-owned
	// locks are the Yes votes cast here and awaiting a decision. The
	// overlap check, the replica's LockRegion token, the in-doubt resend
	// and the covered-lock release all read this one table.
	locks   map[txID]*heldLock // actor-owned
	nextTok uint64             // actor-owned
	// flattenVC is the delivered clock when the last flatten applied; any
	// proposal must dominate it (a flatten renames identifiers, so it
	// counts as an edit of its whole region).
	flattenVC vclock.VC // actor-owned
	// pendingCommits are committed rounds whose OpFlatten mint is deferred
	// until every locally applied edit has been stamped (the op's sequence
	// number must match its causal stamp).
	pendingCommits []*round // actor-owned
	// compactPending asks the ticker to keep trying to adopt the flatten
	// epoch as the oplog compaction barrier until the snapshot lands.
	compactPending bool // actor-owned
}

// round is one transaction this engine coordinates. It is open while
// waiting names the participants whose Yes is still owed — any No, or the
// deadline, aborts it; the last Yes commits it — and a remembered decision
// afterwards, which answers re-sent votes: committed, and seq, the
// committed OpFlatten's sequence number (0 for an abort, or for a commit
// whose mint is still pending).
type round struct {
	tx        txID
	path      ident.Path
	waiting   map[ident.SiteID]bool
	deadline  time.Time
	committed bool
	seq       uint64
}

func (r *round) open() bool { return r.waiting != nil }

// heldLock is one Yes vote: the subtree stays frozen against local edits —
// and against Yes votes for overlapping proposals — until the decision. A
// participant that released early could accept edits a late-arriving
// commit would then destroy; the coordinator's deadline guarantees a live
// coordinator eventually decides.
type heldLock struct {
	tok uint64
	// path and obs identify the round this lock answers: a proposal
	// re-using the txID with a different path or observed clock (a
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
	lastPing    time.Time
	commitKnown bool
	opSeq       uint64
}

func newFlattenState(e *Engine) flattenState {
	return flattenState{
		rounds: make(map[txID]*round),
		nextTx: uint64(e.now().UnixNano()),
		locks:  make(map[txID]*heldLock),
	}
}

// participants returns the proposal participant set: this site plus every
// member of the stability frontier. The coordinator waits for exactly
// these votes; any additional receiver of the proposal still votes, and
// its No still aborts.
func (e *Engine) participants() map[ident.SiteID]bool {
	parts := map[ident.SiteID]bool{e.site: true}
	for s := range e.acked {
		parts[s] = true
	}
	return parts
}

// ProposeFlatten starts the commitment protocol to flatten the whole
// document, with this engine as coordinator. It returns once the proposal
// is queued; the round itself is asynchronous — watch FlattensCommitted,
// FlattensAborted and FlattensApplied, or the document's Stats. A
// proposal racing any concurrent edit aborts harmlessly; propose again
// when the document quiesces.
func (e *Engine) ProposeFlatten() error {
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
	ch := make(chan bool, 1)
	if !e.ctl(func() {
		path := e.doc.ColdestSubtree(int64(revisions), coldMinNodes)
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
// replica locks and votes under the same rules). A live link that has
// not delivered a digest yet may hide members the ack table has never
// heard of, so the proposal counts as an abort and mints nothing; an
// engine with no links still commits alone.
func (e *Engine) startProposal(path ident.Path) {
	for _, p := range e.peers {
		if !p.dead() && p.heardVC == nil {
			e.flattensAborted.Add(1)
			return
		}
	}
	st := &e.fl
	obs := e.buf.Clock()
	st.nextTx++
	r := &round{
		tx:       txID{coord: e.site, n: st.nextTx},
		path:     path.Clone(),
		waiting:  e.participants(),
		deadline: e.now().Add(e.flattenTimeout),
	}
	st.rounds[r.tx] = r
	e.fanoutFrame(kindFlatPropose, &FlatProposeFrame{From: e.site, N: r.tx.n, Path: path, Obs: obs})
	e.countVote(r, e.site, e.castVote(r.tx, path, obs))
}

// castVote evaluates a proposal and reports this replica's vote, holding
// a lock for a Yes. The region is frozen BEFORE the vote condition is
// read: any local edit that completed before the freeze is visible to the
// version check, and any edit after it is rejected by the lock — so a Yes
// vote's promise ("the region stays as the coordinator observed it until
// the decision") has no race window. A No vote releases the freeze
// immediately. The vote is No when the replica observed a conflicting edit
// or already holds a lock for an overlapping region: two concurrent
// flatten proposals must never both commit, because committed flattens
// apply in message order, not causal order.
func (e *Engine) castVote(tx txID, path ident.Path, obs vclock.VC) bool {
	st := &e.fl
	tok := st.nextTok
	st.nextTok++
	e.doc.LockRegion(tok, path)
	if !e.uneditedSince(path, obs) || st.overlapsLock(path) {
		e.doc.UnlockRegion(tok)
		return false
	}
	st.locks[tx] = &heldLock{tok: tok, path: path.Clone(), obs: obs.Clone(), lastPing: e.now()}
	return true
}

// overlapsLock reports whether the subtree at structural path p intersects
// a region some open Yes vote has frozen. Subtree regions are intervals,
// and two intersect exactly when one node lies inside the other's subtree.
func (st *flattenState) overlapsLock(p ident.Path) bool {
	for _, l := range st.locks {
		if ident.RegionCompare(l.path, p) == 0 || ident.RegionCompare(p, l.path) == 0 {
			return true
		}
	}
	return false
}

// uneditedSince is the vote condition of Section 4.2.1 over the engine's
// state: vote Yes only if this replica has delivered everything the
// coordinator observed, can still evaluate that far back (no truncated
// evidence, no flatten beyond obs), holds no applied-but-unstamped local
// edit, and retains no operation beyond obs inside the subtree — the
// retained log is the evidence, scanned only where obs does not cover it.
// An operation the replica refused to apply is retained too and counts as
// an edit, which can only turn a Yes into a No.
func (e *Engine) uneditedSince(path ident.Path, obs vclock.VC) bool {
	st := &e.fl
	clock := e.buf.Clock()
	if !clock.Dominates(obs) {
		return false // cannot evaluate the coordinator's view of the region
	}
	if st.flattenVC != nil && !obs.Dominates(st.flattenVC) {
		return false // an applied flatten renamed identifiers beyond obs
	}
	if e.truncVC != nil && !obs.Dominates(e.truncVC) {
		return false // evidence below the truncation floor no longer exists
	}
	if !vcEqual(e.doc.Version(), clock) {
		return false // in-flight local edits the actor has not stamped yet
	}
	evidence := e.retained.AppendMissing(e.missScratch[:0], obs)
	var id ident.Path // one scratch for the scan: operations hold identifiers packed
	edited := slices.ContainsFunc(evidence, func(m causal.Message) bool {
		// A flatten beyond obs already failed the flattenVC test above.
		op, ok := m.Payload.(core.Op)
		if !ok || op.Kind == core.OpFlatten {
			return false
		}
		id = op.ID.AppendPath(id[:0])
		return ident.RegionCompare(id, path) == 0
	})
	clear(evidence)
	e.missScratch = evidence[:0]
	return !edited
}

// handleFlatPropose votes on a proposal from another coordinator.
func (e *Engine) handleFlatPropose(f *FlatProposeFrame) {
	if f.From == e.site {
		return
	}
	tx := txID{coord: f.From, n: f.N}
	if l, held := e.fl.locks[tx]; held {
		if l.path.Equal(f.Path) && vcEqual(l.obs, f.Obs) {
			// Duplicate of the round we already voted Yes in: re-affirm.
			e.sendVote(tx, true)
			return
		}
		// Same txID, different round: a coordinator that lost its counter
		// re-minted the id. The old round died with that coordinator, so
		// its lock is released (abort) and the new round evaluated from
		// scratch — re-affirming blindly would skip the vote condition.
		e.releaseLock(tx)
	}
	e.sendVote(tx, e.castVote(tx, f.Path, f.Obs))
}

// sendVote broadcasts a vote frame; only the coordinator consumes it.
func (e *Engine) sendVote(tx txID, yes bool) {
	e.fanoutFrame(kindFlatVote, &FlatVoteFrame{From: e.site, Coord: tx.coord, N: tx.n, Yes: yes})
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
// rounds no longer open — a participant querying an in-doubt lock, or a
// frame delayed past the decision — are answered from the remembered
// decision, presuming abort for anything forgotten: the classic
// presumed-abort recovery that lets a participant release a lock whose
// decision frame was lost.
func (e *Engine) handleFlatVote(f *FlatVoteFrame, from *peer) {
	if f.From == e.site || f.Coord != e.site {
		return
	}
	r := e.fl.rounds[txID{coord: f.Coord, n: f.N}]
	if r != nil && r.open() {
		e.countVote(r, f.From, f.Yes)
		return
	}
	if from == nil || from.dead() {
		return
	}
	answer := &FlatDecisionFrame{From: e.site, N: f.N}
	if r != nil {
		answer.Commit, answer.Seq = r.committed, r.seq
	}
	if frame, err := encodeFrame(kindFlatDecision, answer); err == nil {
		from.send(frame)
	} else {
		e.wireErrs.Add(1)
	}
}

// countVote ingests one vote for an open round: the first No aborts it,
// the last outstanding Yes commits it. A second Yes from one site counts
// once.
func (e *Engine) countVote(r *round, from ident.SiteID, yes bool) {
	if !yes {
		e.decide(r, false)
		return
	}
	delete(r.waiting, from)
	if len(r.waiting) == 0 {
		e.decide(r, true)
	}
}

// abortDueRounds aborts the open rounds whose deadline passed (a
// participant crashed or is partitioned away): presumed abort keeps the
// protocol safe, just not live for that transaction.
func (e *Engine) abortDueRounds() {
	now := e.now()
	var due []*round
	for _, r := range e.fl.rounds {
		if r.open() && !now.Before(r.deadline) {
			due = append(due, r)
		}
	}
	slices.SortFunc(due, func(a, b *round) int { return a.tx.compare(b.tx) })
	for _, r := range due {
		e.decide(r, false)
	}
}

// decide closes a round this engine coordinates: the entry becomes the
// remembered outcome (for re-sent votes), and either the OpFlatten mint is
// queued (commit — the decision frame is broadcast by the mint, once the
// operation's sequence number exists to put in it) or the abort is
// broadcast and the coordinator's own lock released.
func (e *Engine) decide(r *round, commit bool) {
	st := &e.fl
	r.waiting, r.committed = nil, commit
	st.decidedOrder = append(st.decidedOrder, r.tx)
	if len(st.decidedOrder) > maxDecidedMemory {
		delete(st.rounds, st.decidedOrder[0])
		st.decidedOrder = st.decidedOrder[1:]
	}
	if commit {
		e.flattensCommitted.Add(1)
		st.pendingCommits = append(st.pendingCommits, r)
		e.mintPendingFlattens()
		return
	}
	e.flattensAborted.Add(1)
	e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: r.tx.n, Path: r.path})
	e.releaseLock(r.tx)
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
	if f.From == e.site {
		return
	}
	tx := txID{coord: f.From, n: f.N}
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
		e.releaseLock(tx)
	}
}

// releaseCoveredLocks releases every committed lock whose OpFlatten the
// local clock already covers — delivered as an operation (the usual
// path, also handled by releaseLocksFor) or absorbed into an installed
// snapshot, which is the path that would otherwise leak the lock
// forever.
func (e *Engine) releaseCoveredLocks() {
	clock := e.buf.Clock()
	for tx, l := range e.fl.locks {
		if l.commitKnown && l.opSeq > 0 && clock.Get(tx.coord) >= l.opSeq {
			e.releaseLock(tx)
		}
	}
}

// mintPendingFlattens executes committed flattens whose mint had to wait.
// The wait: an OpFlatten's sequence number is assigned by the replica and
// its causal stamp by the actor, and the two must agree — so the mint is
// deferred while any locally applied edit is still waiting to be stamped
// (its Broadcast is in flight towards the actor). The commit's region
// lock stays held meanwhile, so the region itself cannot move; the actor
// retries after every inbox drain and on every tick.
func (e *Engine) mintPendingFlattens() {
	st := &e.fl
	for len(st.pendingCommits) > 0 {
		r := st.pendingCommits[0]
		clock := e.buf.Clock()
		if !vcEqual(e.doc.Version(), clock) {
			return
		}
		op, err := e.doc.FlattenOp(r.path, clock.Get(e.site))
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
			e.setErr(fmt.Errorf("transport: flatten commit %v at %v: %w", r.tx, r.path, err))
			r.committed = false
			e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: r.tx.n, Path: r.path})
		} else {
			m := e.buf.Stamp(op)
			e.record(m)
			e.batch = append(e.batch, m)
			// Now the operation has a stamp, the commit decision can name
			// it: participants release their locks once their clocks cover
			// (site, seq), even if the op reaches them inside a snapshot.
			r.seq = op.Seq
			e.fanoutFrame(kindFlatDecision, &FlatDecisionFrame{From: e.site, N: r.tx.n, Commit: true, Seq: op.Seq, Path: r.path})
			e.afterFlattenApplied()
		}
		e.releaseLock(r.tx)
		st.pendingCommits = st.pendingCommits[1:]
	}
}

// recordOp feeds the vote bookkeeping for an operation that has taken
// effect here: a locally broadcast one (called from the actor right after
// stamping) or a delivered one. Edits are the retained log's to remember.
func (e *Engine) recordOp(op core.Op) {
	if op.Kind == core.OpFlatten {
		// A delivered OpFlatten is the commit taking effect here; a local one
		// is a caller broadcasting Doc.FlattenOp directly, outside the engine's
		// own commitment, and is treated like any applied flatten.
		e.releaseLocksFor(op.Site, op.ID)
		e.afterFlattenApplied()
	}
}

// afterFlattenApplied runs once a flatten has taken effect on the local
// replica (minted or delivered): anchor the flatten clock and make the
// flatten epoch the oplog compaction barrier — the snapshot taken here is
// what lets a post-flatten joiner skip every pre-flatten operation.
func (e *Engine) afterFlattenApplied() {
	st := &e.fl
	st.flattenVC = e.buf.Clock()
	e.flattensApplied.Add(1)
	st.compactPending = !vcEqual(e.doc.Version(), e.buf.Clock()) || !e.compactNow()
}

// releaseLocksFor releases every lock matching an applied flatten (its
// coordinator and subtree), completing those transactions at this
// participant.
func (e *Engine) releaseLocksFor(coord ident.SiteID, id ident.Packed) {
	for tx, l := range e.fl.locks {
		if tx.coord == coord && ident.Pack(l.path) == id {
			e.releaseLock(tx)
		}
	}
}

// releaseLock completes one transaction at this participant, whatever the
// outcome: the vote is forgotten and the replica's region unfreezes. (A
// commit's effect arrives through the causal stream, not through here.)
func (e *Engine) releaseLock(tx txID) {
	st := &e.fl
	l, ok := st.locks[tx]
	if !ok {
		return
	}
	e.doc.UnlockRegion(l.tok)
	delete(st.locks, tx)
}

// releaseAllLocks abandons every open vote on engine stop: a stopped
// engine can never receive a decision, and a region frozen forever is
// worse than an abandoned vote (the coordinator's deadline aborts the
// round without us).
func (e *Engine) releaseAllLocks() {
	for _, tx := range e.fl.lockedTxs() {
		e.releaseLock(tx)
	}
}

// flattenTick is the per-sync-tick commitment work: coordinator
// deadlines, in-doubt vote resends, deferred mints and the flatten-epoch
// compaction retry.
func (e *Engine) flattenTick() {
	st := &e.fl
	e.abortDueRounds()
	e.releaseCoveredLocks()
	e.resendDoubtVotes()
	e.mintPendingFlattens()
	if st.compactPending && vcEqual(e.doc.Version(), e.buf.Clock()) && e.compactNow() {
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
	now := e.now()
	for _, tx := range e.fl.lockedTxs() {
		l := e.fl.locks[tx]
		if (l.commitKnown && l.opSeq > 0) || now.Sub(l.lastPing) < e.flattenTimeout {
			continue
		}
		l.lastPing = now
		e.sendVote(tx, true)
	}
}

// lockedTxs lists the open votes in transaction order, for the sweeps that
// send a frame or unfreeze a region per lock.
func (st *flattenState) lockedTxs() []txID {
	txs := make([]txID, 0, len(st.locks))
	for tx := range st.locks {
		txs = append(txs, tx)
	}
	slices.SortFunc(txs, txID.compare)
	return txs
}
