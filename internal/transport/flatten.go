package transport

// Engine-run flatten, the round that makes flatten safe (Section 4.2.1 of
// the Treedoc paper): a flatten must never rename a region under a
// concurrent edit, and "any distributed commitment protocol will do".
// Everything a replica must remember of a round is an operation in the
// causal stream — retained, logged, replayed and carried by snapshots like
// any edit — and the one frame is an acknowledgement. The whole round lives
// in this file and runs on the actor.
//
//   - Intent. The author, the engine ProposeFlatten or ProposeFlattenCold
//     is called on, mints a core.OpIntent naming the region. Every replica
//     that applies it refuses local edits of the region with
//     core.ErrRegionLocked; remote edits keep applying.
//
//   - Ack. A member acknowledges an intent with one kindFlatAck frame, fanned
//     to every peer, once every local edit it applied before the lock is
//     stamped (its replica's version equals its delivered clock) and it
//     holds no other pending intent that overlaps this one. The ack carries
//     the member's delivered clock, and is re-sent each tick while the
//     intent is pending there. A hub relays digests to a sample of the
//     group only, so acks cannot ride on them.
//
//   - Decision. The author mints the OpFlatten once the round is stable:
//     every member of its ack table (Engine.acked, the stability frontier
//     the truncation floor reads) has acked, the author's delivered clock
//     dominates every clock those acks carried, and a digest has been heard
//     on every live link. A region edit a member made or delivered before
//     it acked — from a site the author has never heard of, too — is then
//     in the author's tree, so it is flattened, not lost. At the deadline,
//     when the region is gone (UDIS may prune it), or as soon as another
//     author's overlapping intent is pending here, the author mints an
//     OpAbort instead; abort is always safe. Applying either releases the
//     lock. Both name the round by (author, path): the author's next intent
//     at a path is causally after its decision.
//
//   - Restart and stop. The ack table and the deadline are volatile, so an
//     author that restarts, or stops gracefully, aborts its own pending
//     intents rather than decide on a table that may miss a member. A stop
//     with a local edit applied but never broadcast cannot stamp that
//     abort; Err reports it.
//
// What this does NOT give: an author lost for good leaves its region frozen
// at every replica, joiners included (docs/ARCHITECTURE.md §7).

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Flattener is the replica's part in a flatten round. FlattenOp mints the
// round's operations as local edits and returns them to broadcast; Intents
// lists the rounds pending at the replica; Version reports the applied
// version vector so the engine can detect local edits it has not stamped
// yet; ColdestSubtree picks cold-subtree proposal candidates.
type Flattener interface {
	Version() vclock.VC
	// FlattenOp mints a core.OpIntent, OpFlatten or OpAbort at path if the
	// replica's local sequence still equals afterSeq; a racing local edit
	// fails the mint with core.ErrMintRaced and the engine retries after
	// the edit's stamp lands — keeping op sequence numbers and causal
	// stamps in lockstep.
	FlattenOp(kind core.OpKind, path ident.Path, afterSeq uint64) (core.Op, error)
	Intents() []core.Op
	ColdestSubtree(revisions int64, minNodes int) ident.Path
}

// coldMinNodes is the smallest subtree ProposeFlattenCold proposes.
const coldMinNodes = 2

// flattenState is the engine's part in its rounds. Actor-owned.
type flattenState struct {
	// own are the rounds this engine authored and has not decided, by the
	// intent's sequence number.
	own map[uint64]*authored // actor-owned
	// compactPending asks the ticker to keep trying to adopt the flatten
	// epoch as the oplog compaction barrier until the snapshot lands.
	compactPending bool // actor-owned
}

// authored is an undecided round of this engine's: its region, its
// deadline, and the merge of the clocks each member's acks carried.
type authored struct {
	path     ident.Path
	deadline time.Time
	acks     map[ident.SiteID]vclock.VC
}

// ProposeFlatten starts a round to flatten the whole document, with this
// engine as author. It returns once the proposal is queued; the round itself
// is asynchronous — watch Stats' FlattensCommitted, FlattensAborted and
// FlattensApplied, or the document's Stats. A region edit concurrent with
// the round is flattened with it; a round a member cannot ack in time
// aborts harmlessly.
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

// startProposal mints a round's intent on the actor. The proposal is
// refused, and counted as an abort, while a live link has not delivered a
// digest (it may hide members the ack table has never heard of), while a
// local edit is applied but not stamped, or when the region overlaps a
// round pending here. An engine with no members decides at once.
func (e *Engine) startProposal(path ident.Path) {
	clock := e.buf.Clock()
	if !e.heardEveryLink() || !vcEqual(e.doc.Version(), clock) || overlaps(e.doc.Intents(), path, 0) {
		e.flattensAborted.Add(1)
		return
	}
	op, err := e.doc.FlattenOp(core.OpIntent, path, clock.Get(e.site))
	if err != nil {
		e.flattensAborted.Add(1)
		return
	}
	e.emit(op)
	e.fl.own[op.Seq] = &authored{path: path.Clone(), deadline: e.now().Add(e.flattenTimeout), acks: make(map[ident.SiteID]vclock.VC)}
	e.decideRounds()
}

// heardEveryLink reports whether every live link has delivered a digest.
func (e *Engine) heardEveryLink() bool {
	return !slices.ContainsFunc(e.peers, func(p *peer) bool { return !p.dead() && p.heardVC == nil })
}

// overlaps reports whether the subtree at structural path p intersects the
// region of a pending intent of an author other than skip (no site is 0).
// An author holds no two overlapping intents, so skipping its own skips
// nothing that overlaps. Subtree regions are intervals, and two intersect
// exactly when one node lies inside the other's subtree.
func overlaps(intents []core.Op, p ident.Path, skip ident.SiteID) bool {
	var q ident.Path
	return slices.ContainsFunc(intents, func(op core.Op) bool {
		q = op.ID.AppendPath(q[:0])
		return op.Site != skip && (ident.RegionCompare(q, p) == 0 || ident.RegionCompare(p, q) == 0)
	})
}

// ack fans this member's acknowledgement of another author's intent out,
// if every local edit it applied is stamped and no other pending intent
// overlaps the intent's region.
func (e *Engine) ack(in core.Op, intents []core.Op) {
	clock := e.buf.Clock()
	if in.Site == e.site || !vcEqual(e.doc.Version(), clock) || overlaps(intents, in.ID.AppendPath(nil), in.Site) {
		return
	}
	frame, err := encodeFrame(kindFlatAck, &FlatAckFrame{From: e.site, Author: in.Site, Intent: in.Seq, Clock: clock})
	if err != nil {
		e.encodeFailed(1, err)
		return
	}
	e.fanout(frame)
}

// handleFlatAck records a member's ack of a round this engine authored.
func (e *Engine) handleFlatAck(f *FlatAckFrame) {
	if r := e.fl.own[f.Intent]; r != nil && f.Author == e.site {
		if r.acks[f.From] == nil {
			r.acks[f.From] = vclock.New()
		}
		r.acks[f.From].Merge(f.Clock)
	}
}

// decideRounds decides every round of this engine's, in intent order: the
// decisions are operations, and a replayable schedule cannot let map
// iteration pick their order. A round aborts as soon as another author's
// overlapping intent is pending here — a member holding both acks
// neither, so waiting would only hold both regions locked until the
// deadline — commits once stable, and aborts at its deadline.
func (e *Engine) decideRounds() {
	if len(e.fl.own) == 0 {
		return
	}
	seqs := make([]uint64, 0, len(e.fl.own))
	for seq := range e.fl.own {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	intents := e.doc.Intents()
	for _, seq := range seqs {
		switch r := e.fl.own[seq]; {
		case overlaps(intents, r.path, e.site):
			e.decide(seq, r.path, core.OpAbort)
		case e.stable(r):
			e.decide(seq, r.path, core.OpFlatten)
		case !e.now().Before(r.deadline):
			e.decide(seq, r.path, core.OpAbort)
		}
	}
}

// stable reports whether every member has acked the round and this engine
// has delivered every operation each one had when it last acked.
func (e *Engine) stable(r *authored) bool {
	clock := e.buf.Clock()
	for s := range e.acked {
		if ack, ok := r.acks[s]; !ok || !clock.Dominates(ack) {
			return false
		}
	}
	return e.heardEveryLink()
}

// decide mints the decision of this engine's round at path: kind is
// OpFlatten, which becomes an abort if the region no longer exists, or
// OpAbort. It reports whether it minted. The mint waits, to be retried
// after the next step, while a local edit is applied but not stamped: an
// operation's sequence number and its causal stamp must agree.
func (e *Engine) decide(seq uint64, path ident.Path, kind core.OpKind) bool {
	clock := e.buf.Clock()
	if !vcEqual(e.doc.Version(), clock) {
		return false
	}
	op, err := e.doc.FlattenOp(kind, path, clock.Get(e.site))
	if kind == core.OpFlatten && err != nil && !errors.Is(err, core.ErrMintRaced) {
		kind = core.OpAbort
		op, err = e.doc.FlattenOp(kind, path, clock.Get(e.site))
	}
	if err != nil {
		return false
	}
	delete(e.fl.own, seq)
	if kind == core.OpFlatten {
		e.flattensCommitted.Add(1)
	} else {
		e.flattensAborted.Add(1)
	}
	e.emit(op)
	return true
}

// abortOwn aborts every intent this engine authored that is pending at its
// replica: a stopped author can never decide, so its rounds would freeze
// their regions everywhere. An abort it cannot stamp — a local edit was
// applied but never broadcast — is latched as the engine's error: the
// region stays locked at every replica until this author restarts.
func (e *Engine) abortOwn() {
	for _, in := range e.doc.Intents() {
		if in.Site == e.site && !e.decide(in.Seq, in.ID.AppendPath(nil), core.OpAbort) {
			e.setErr(fmt.Errorf("transport: stop left flatten intent s%d#%d pending: a local edit was applied but never broadcast", in.Site, in.Seq))
		}
	}
}

// recordOp runs the round's bookkeeping for an operation that has taken
// effect here: one this engine stamped, or a delivered one.
func (e *Engine) recordOp(op core.Op) {
	switch op.Kind {
	case core.OpIntent:
		e.ack(op, e.doc.Intents())
	case core.OpFlatten:
		e.afterFlattenApplied()
	}
}

// afterFlattenApplied runs once a flatten has taken effect on the local
// replica (minted or delivered): make the flatten epoch the oplog
// compaction barrier — the snapshot taken here is what lets a post-flatten
// joiner skip every pre-flatten operation.
func (e *Engine) afterFlattenApplied() {
	e.flattensApplied.Add(1)
	e.fl.compactPending = !vcEqual(e.doc.Version(), e.buf.Clock()) || !e.compactNow()
}

// flattenTick is the per-sync-tick round work: ack resends for the intents
// pending here, decisions, and the flatten-epoch compaction retry. An
// intent of this engine's it holds no round for — a restart or an
// installed snapshot left it without an ack table — is aborted.
func (e *Engine) flattenTick() {
	intents := e.doc.Intents()
	for _, in := range intents {
		if in.Site != e.site {
			e.ack(in, intents)
		} else if e.fl.own[in.Seq] == nil {
			e.decide(in.Seq, in.ID.AppendPath(nil), core.OpAbort)
		}
	}
	e.decideRounds()
	if st := &e.fl; st.compactPending && vcEqual(e.doc.Version(), e.buf.Clock()) && e.compactNow() {
		st.compactPending = false
	}
}
