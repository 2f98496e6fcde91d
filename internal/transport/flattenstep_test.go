package transport

import (
	"slices"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// The flatten round, one engine at a time: a stepped engine over a link
// that records what it sends, fed real frames by the test — other
// authors' intents and decisions as operations, members' acks as frames.
// The rounds that need several live engines (commit with a concurrent
// edit, deadline abort, lock until decision, restarts and joiners) are
// flatten_test.go's and the root package's TestClusterFlatten* and
// TestCluster*Round*.

// flatStep is a stepped engine with a flatten-capable replica, its one
// link, and the clock the test moves.
type flatStep struct {
	t    *testing.T
	r    *testReplica
	s    *Stepper
	e    *Engine
	link *recLink
	recv func([]byte)
	now  time.Time
	seqs map[ident.SiteID]uint64 // the last operation each other author sent
}

func newFlatStep(t *testing.T, site ident.SiteID, opts ...Option) *flatStep {
	t.Helper()
	f := &flatStep{t: t, r: newTestReplica(t, site), link: &recLink{}, now: time.UnixMilli(0), seqs: make(map[ident.SiteID]uint64)}
	s, err := NewStepper(site, f.r, func() time.Time { return f.now }, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f.s, f.e, f.recv = s, s.Engine(), s.Connect(f.link)
	f.link.frames = nil
	t.Cleanup(s.Stop)
	return f
}

// deliver hands the engine one frame, as a peer would have sent it.
func (f *flatStep) deliver(kind byte, fr frame) {
	f.t.Helper()
	b, err := encodeFrame(kind, fr)
	if err != nil {
		f.t.Fatal(err)
	}
	f.recv(b)
}

// drain decodes and forgets what the engine has sent since the last drain.
func (f *flatStep) drain() []any {
	f.t.Helper()
	out := make([]any, len(f.link.frames))
	for i, b := range f.link.frames {
		fr, err := DecodeFrame(b)
		if err != nil {
			f.t.Fatal(err)
		}
		out[i] = fr
	}
	f.link.frames = nil
	return out
}

// framesOf keeps the frames of one type, in the order they were sent.
func framesOf[T any](frames []any) []T {
	var out []T
	for _, fr := range frames {
		if v, ok := fr.(T); ok {
			out = append(out, v)
		}
	}
	return out
}

// sent drains what the engine sent and returns the operations of the
// given kinds among it, in the order they were sent.
func (f *flatStep) sent(kinds ...core.OpKind) []core.Op {
	f.t.Helper()
	var ops []core.Op
	for _, of := range framesOf[*OpsFrame](f.drain()) {
		for _, m := range of.Msgs {
			for _, k := range kinds {
				if op := m.Payload.(core.Op); op.Kind == k {
					ops = append(ops, op)
				}
			}
		}
	}
	return ops
}

// acks drains what the engine sent and returns its acks.
func (f *flatStep) acks() []*FlatAckFrame {
	f.t.Helper()
	return framesOf[*FlatAckFrame](f.drain())
}

// write makes one local edit and broadcasts it.
func (f *flatStep) write(atom string) {
	f.t.Helper()
	if err := f.e.Broadcast(f.r.insertAt(f.t, 0, atom)); err != nil {
		f.t.Fatal(err)
	}
}

// hear makes site a member: a digest from it, level with this engine.
func (f *flatStep) hear(site ident.SiteID) {
	f.t.Helper()
	f.deliver(kindSyncReq, &SyncReqFrame{From: site, Clock: f.e.Clock()})
}

// round delivers author's next operation, a flatten round's of the given
// kind at path, as the author stamped it.
func (f *flatStep) round(author ident.SiteID, kind core.OpKind, path ident.Path) {
	f.t.Helper()
	f.seqs[author]++
	n := f.seqs[author]
	op := core.Op{Kind: kind, ID: ident.Pack(path), Site: author, Seq: n}
	f.deliver(kindOps, &OpsFrame{Msgs: []causal.Message{{From: author, TS: vclock.VC{author: n}, Payload: op}}})
}

// propose starts a whole-document round here and returns its intent's
// sequence number.
func (f *flatStep) propose() uint64 {
	f.t.Helper()
	if err := f.e.ProposeFlatten(); err != nil {
		f.t.Fatal(err)
	}
	in := f.sent(core.OpIntent)
	if len(in) != 1 {
		f.t.Fatalf("ProposeFlatten minted %d intents", len(in))
	}
	return in[0].Seq
}

// ackFrom delivers member from's ack of this engine's intent, carrying the
// delivered clock of a member level with this engine, and returns the
// decisions it drew.
func (f *flatStep) ackFrom(from ident.SiteID, intent uint64) []core.Op {
	f.t.Helper()
	return f.ackWith(from, intent, f.e.Clock())
}

// ackWith delivers member from's ack of this engine's intent, carrying the
// given delivered clock, and returns the decisions it drew.
func (f *flatStep) ackWith(from ident.SiteID, intent uint64, clock vclock.VC) []core.Op {
	f.t.Helper()
	f.deliver(kindFlatAck, &FlatAckFrame{From: from, Author: f.e.site, Intent: intent, Clock: clock})
	return f.sent(core.OpFlatten, core.OpAbort)
}

// ackAuthors lists the authors acks name, in the order they were sent.
func ackAuthors(acks []*FlatAckFrame) []ident.SiteID {
	var out []ident.SiteID
	for _, a := range acks {
		out = append(out, a.Author)
	}
	return out
}

// TestOverlappingProposalsGetOneYes: while an intent is pending at a
// member, the member acks no other intent whose region encloses, nests in
// or equals it — two overlapping rounds must never both flatten, because
// each renames what the other waits on — and acks a disjoint one. Each
// decision frees the pending intents nothing else overlaps any more.
func TestOverlappingProposalsGetOneYes(t *testing.T) {
	f := newFlatStep(t, 2)
	region := ident.Path{ident.J(1), ident.J(0)}
	nested := ident.Path{ident.J(1), ident.J(0), ident.J(1)}
	f.round(3, core.OpIntent, region)
	if a := f.acks(); len(a) != 1 || a[0].Author != 3 || a[0].Intent != 1 || a[0].From != 2 {
		t.Fatalf("a quiescent member's ack of the first intent: %+v", a)
	}
	f.round(8, core.OpIntent, ident.Path{ident.J(0)})
	if a := f.acks(); len(a) != 1 || a[0].Author != 8 {
		t.Fatalf("a disjoint intent drew acks %+v", a)
	}
	paths := map[ident.SiteID]ident.Path{3: region, 4: {}, 5: {ident.J(1)}, 6: nested, 7: region, 8: {ident.J(0)}}
	for _, author := range []ident.SiteID{4, 5, 6, 7} {
		f.round(author, core.OpIntent, paths[author])
		if a := f.acks(); len(a) != 0 {
			t.Errorf("s%d's intent at %v drew an ack while %v is pending", author, paths[author], region)
		}
	}
	if n := len(f.r.doc.Intents()); n != 6 {
		t.Fatalf("%d regions locked, want every intent's", n)
	}
	for _, tc := range []struct {
		aborted ident.SiteID
		want    []ident.SiteID
	}{
		{3, nil},                  // s4's whole document still overlaps all
		{4, []ident.SiteID{8}},    // s5, s6 and s7 still overlap one another
		{5, []ident.SiteID{8}},    // s6 nests in s7
		{6, []ident.SiteID{7, 8}}, // nothing overlaps any more
		{7, []ident.SiteID{8}},
		{8, nil},
	} {
		f.round(tc.aborted, core.OpAbort, paths[tc.aborted])
		f.drain()
		f.s.Tick()
		if got := ackAuthors(f.acks()); !slices.Equal(got, tc.want) {
			t.Errorf("after s%d's abort the tick acked %v, want %v", tc.aborted, got, tc.want)
		}
	}
	if n := len(f.r.doc.Intents()); n != 0 {
		t.Fatalf("%d regions locked after every round aborted", n)
	}
}

// TestOverlappingIntentAbortsTheAuthorsRound: a member holding two
// overlapping intents acks neither, so an author that has applied another
// author's intent overlapping its own round aborts the round at once
// rather than hold the region locked everywhere until its deadline. A
// disjoint intent leaves the round open.
func TestOverlappingIntentAbortsTheAuthorsRound(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	f.e.ctl(func() { f.e.startProposal(ident.Path{ident.J(0)}) })
	n := f.sent(core.OpIntent)[0].Seq
	f.round(3, core.OpIntent, ident.Path{ident.J(1)})
	if d := f.sent(core.OpFlatten, core.OpAbort); len(d) != 0 {
		t.Fatalf("a disjoint intent drew %v", d)
	}
	f.round(4, core.OpIntent, ident.Path{})
	d := f.sent(core.OpFlatten, core.OpAbort)
	if len(d) != 1 || d[0].Kind != core.OpAbort || f.e.FlattensAborted() != 1 || f.e.fl.own[n] != nil {
		t.Fatalf("an overlapping intent drew %v, %d aborts counted; want round %d aborted", d, f.e.FlattensAborted(), n)
	}
	if got := len(f.r.doc.Intents()); got != 2 {
		t.Fatalf("%d intents pending, want the two other authors'", got)
	}
}

// TestReproposingAnOpenRegionAbortsOnlyTheSecondRound: an author issues no
// intent that overlaps one it holds, so proposing a region again while its
// first round is open is refused and counted as an abort; the first round
// is untouched and still commits.
func TestReproposingAnOpenRegionAbortsOnlyTheSecondRound(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	first := f.propose()
	if err := f.e.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	if in := f.sent(core.OpIntent, core.OpAbort); len(in) != 0 {
		t.Fatalf("re-proposing an open region minted %v", in)
	}
	if a, n, l := f.e.FlattensAborted(), len(f.e.fl.own), len(f.r.doc.Intents()); a != 1 || n != 1 || l != 1 {
		t.Fatalf("aborted %d, %d rounds, %d locks; want the second refused, the first open", a, n, l)
	}
	if d := f.ackFrom(2, first); len(d) != 1 || d[0].Kind != core.OpFlatten {
		t.Fatalf("decisions after the owed ack: %v, want the first round committed", d)
	}
	if c, a, l := f.e.Stats().FlattensCommitted, f.e.FlattensAborted(), len(f.r.doc.Intents()); c != 1 || a != 1 || l != 0 {
		t.Fatalf("committed %d, aborted %d, %d locks; want 1, 1, 0", c, a, l)
	}
}

// disjoint returns the i'th of 2^depth pairwise disjoint regions.
func disjoint(i, depth int) ident.Path {
	p := make(ident.Path, depth)
	for d := range p {
		p[d] = ident.J(uint8(i >> (depth - 1 - d) & 1))
	}
	return p
}

// TestDueRoundsAbortInTransactionOrder: rounds that time out on one tick
// are aborted in intent order — the aborts are operations, and a
// replayable schedule cannot let map iteration pick their order.
func TestDueRoundsAbortInTransactionOrder(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		f := newFlatStep(t, 1)
		f.hear(2)
		for i := 0; i < 16; i++ {
			f.e.ctl(func() { f.e.startProposal(disjoint(i, 4)) })
		}
		intents := f.sent(core.OpIntent)
		f.now = f.now.Add(f.e.flattenTimeout)
		f.s.Tick()
		aborts := f.sent(core.OpAbort)
		if len(intents) != 16 || len(aborts) != 16 || f.e.FlattensAborted() != 16 {
			t.Fatalf("%d intents, %d aborts, %d counted; want 16 each", len(intents), len(aborts), f.e.FlattensAborted())
		}
		for i := range aborts {
			if aborts[i].ID != intents[i].ID {
				t.Fatalf("abort %d names %v, intent %d was %v", i, aborts[i].ID, i, intents[i].ID)
			}
		}
	}
}

// TestDuplicateYesCountsOnce: a second ack from one member does not stand
// in for the ack another member still owes.
func TestDuplicateYesCountsOnce(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	f.hear(3)
	n := f.propose()
	for i := 0; i < 2; i++ {
		if d := f.ackFrom(2, n); len(d) != 0 || f.e.Stats().FlattensCommitted != 0 {
			t.Fatalf("ack %d from site 2 decided the round site 3 still owes: %v", i+1, d)
		}
	}
	if d := f.ackFrom(3, n); len(d) != 1 || d[0].Kind != core.OpFlatten || f.e.Stats().FlattensCommitted != 1 {
		t.Fatalf("last owed ack: decisions %v, %d committed", d, f.e.Stats().FlattensCommitted)
	}
}

// TestVoteAfterDecisionIsAnsweredFromMemory: the decision is an operation
// every replica applies, so nothing is answered from memory any more. An
// ack that arrives after the decision, one for an intent this engine never
// authored, and one addressed to another author revive no round and mint
// nothing.
func TestVoteAfterDecisionIsAnsweredFromMemory(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	n := f.propose()
	if d := f.ackFrom(2, n); len(d) != 1 || d[0].Kind != core.OpFlatten {
		t.Fatalf("the owed ack: decisions %v", d)
	}
	for _, intent := range []uint64{n, n + 1<<20} {
		if d := f.ackFrom(2, intent); len(d) != 0 {
			t.Fatalf("late ack for %d drew %v", intent, d)
		}
	}
	f.deliver(kindFlatAck, &FlatAckFrame{From: 2, Author: 9, Intent: n})
	if sent := f.drain(); len(sent) != 0 {
		t.Fatalf("an ack for another author drew %v", sent)
	}
	if c, a := f.e.Stats().FlattensCommitted, f.e.FlattensAborted(); c != 1 || a != 0 {
		t.Fatalf("late acks re-decided: committed %d, aborted %d", c, a)
	}
}

// TestReusedTxIDIsReEvaluated: an ack names its intent by sequence number,
// so an ack of an author's decided round at a path does not count for its
// next round there, which waits for an ack of its own.
func TestReusedTxIDIsReEvaluated(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	first := f.propose()
	if d := f.ackFrom(2, first); len(d) != 1 || d[0].Kind != core.OpFlatten {
		t.Fatalf("first round: decisions %v", d)
	}
	second := f.propose()
	if d := f.ackFrom(2, first); len(d) != 0 {
		t.Fatalf("the first round's ack decided the second: %v", d)
	}
	if d := f.ackFrom(2, second); len(d) != 1 || d[0].Kind != core.OpFlatten {
		t.Fatalf("second round's own ack: decisions %v", d)
	}
}

// TestSilentMemberBlocksRoundsUntilTheCap: a member of the stability
// frontier owes every round an ack, however long it has been silent; each
// round it does not ack aborts at its deadline. Its one way out is the
// way it leaves the floor — dropped and counted at the frontier cap —
// after which a round commits alone, and its next digest makes it a
// member again. No clock moves past the deadline: silence alone never
// ends membership.
func TestSilentMemberBlocksRoundsUntilTheCap(t *testing.T) {
	const capacity = 4
	f := newFlatStep(t, 1, WithCompactEvery(capacity))
	f.write("a")
	f.hear(2) // site 2 acknowledges, then falls silent
	n := f.propose()
	if r := f.e.fl.own[n]; r == nil || f.e.stable(r) {
		t.Fatalf("round %d does not wait on site 2: %+v", n, r)
	}
	f.now = f.now.Add(f.e.flattenTimeout)
	f.s.Tick()
	if c, a := f.e.Stats().FlattensCommitted, f.e.FlattensAborted(); c != 0 || a != 1 {
		t.Fatalf("committed %d, aborted %d at the deadline; want 0, 1", c, a)
	}
	// Two compactions' worth of writes: the first adopts a barrier site 2
	// has not acknowledged, the second is capped against it.
	for i := 0; i < 2*capacity; i++ {
		f.write("x")
		if i%capacity == capacity-1 {
			f.s.Tick()
		}
	}
	if d := f.e.Stats().FrontierDrops; d != 1 {
		t.Fatalf("%d members dropped at the cap, want site 2", d)
	}
	f.propose()
	if c := f.e.Stats().FlattensCommitted; c != 1 {
		t.Fatalf("with site 2 dropped, a proposal committed %d rounds, want 1 alone", c)
	}
	f.hear(2)
	n = f.propose()
	if r := f.e.fl.own[n]; r == nil || f.e.stable(r) {
		t.Fatalf("after its digest round %d does not wait on site 2: %+v", n, r)
	}
}

// TestProposalWaitsForEveryLinksDigest: a link that has delivered no
// digest may hide members the ack table has never heard of, so an author
// on it mints no intent and counts an abort; once the link's digest
// arrives, it proposes.
func TestProposalWaitsForEveryLinksDigest(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	if err := f.e.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	if in := f.sent(core.OpIntent); len(in) != 0 {
		t.Fatalf("a link that has heard nothing carried intents %v", in)
	}
	if a, r := f.e.FlattensAborted(), len(f.e.fl.own); a != 1 || r != 0 {
		t.Fatalf("aborted %d, %d rounds registered; want 1, 0", a, r)
	}
	f.hear(2)
	f.propose()
}

// TestEngineWithoutLinksCommitsAlone: with no link and no member, the
// author is the whole round — it commits and applies its own flatten, and
// Stats reports the round.
func TestEngineWithoutLinksCommitsAlone(t *testing.T) {
	r := newTestReplica(t, 3)
	alone, err := NewStepper(3, r, func() time.Time { return time.UnixMilli(0) })
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Stop()
	if err := alone.Engine().Broadcast(r.insertAt(t, 0, "b")); err != nil {
		t.Fatal(err)
	}
	if err := alone.Engine().ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	if s := alone.Engine().Stats(); s.FlattensApplied != 1 || s.FlattensCommitted != 1 || s.FlattensAborted != 0 {
		t.Fatalf("an engine with no links: applied %d, committed %d, aborted %d; want 1/1/0",
			s.FlattensApplied, s.FlattensCommitted, s.FlattensAborted)
	}
}

// TestDoubtVotesResendInTransactionOrder: a member re-sends its acks of
// the intents pending at it each tick, in intent order — by author, then
// sequence number — whatever order the replica's table iterates in: a
// stepped schedule replays only if emission order is a function of state.
func TestDoubtVotesResendInTransactionOrder(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		f := newFlatStep(t, 2)
		for i := 0; i < 8; i++ {
			f.round(ident.SiteID(3+i%2), core.OpIntent, disjoint(i, 3))
		}
		if a := f.acks(); len(a) != 8 {
			t.Fatalf("%d intents acked on delivery, want 8", len(a))
		}
		f.s.Tick()
		acks := f.acks()
		if len(acks) != 8 {
			t.Fatalf("%d acks re-sent, want 8", len(acks))
		}
		for i := 1; i < len(acks); i++ {
			if a, b := acks[i-1], acks[i]; a.Author > b.Author || a.Author == b.Author && a.Intent >= b.Intent {
				t.Fatalf("acks re-sent out of intent order: %+v then %+v", a, b)
			}
		}
	}
}

// TestUnstampedEditDelaysTheAck: a local edit applied but not yet stamped
// when an intent arrives keeps the member from acking — its ack could not
// carry the edit's sequence number — until the stamp lands; the ack then
// carries it, so the author waits for the edit and flattens it.
func TestUnstampedEditDelaysTheAck(t *testing.T) {
	f := newFlatStep(t, 2)
	held := f.r.insertAt(t, 0, "held")
	f.round(3, core.OpIntent, ident.Path{})
	f.s.Tick()
	if a := f.acks(); len(a) != 0 {
		t.Fatalf("a member with an unstamped edit acked: %+v", a)
	}
	if err := f.e.Broadcast(held); err != nil {
		t.Fatal(err)
	}
	f.s.Tick()
	if a := f.acks(); len(a) != 1 || a[0].Clock.Get(2) != held.Seq {
		t.Fatalf("acks once the edit is stamped: %+v, want one carrying seq %d", a, held.Seq)
	}
}

// TestRoundWaitsForWhatAMemberDeliveredBeforeItAcked: an ack carries the
// member's delivered clock, so a region edit the member had delivered from
// a site the author has never heard of — through a hub, a sampled digest
// and a refused queue slot can hide such a writer — keeps the round open
// until the author delivers that edit too. Delivering it makes the writer
// a member whose own ack the round then waits for, and the flatten
// includes the edit.
func TestRoundWaitsForWhatAMemberDeliveredBeforeItAcked(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	n := f.propose()
	edit := newTestReplica(t, 9).insertAt(t, 0, "x")
	seen := f.e.Clock()
	seen[9] = edit.Seq
	if d := f.ackWith(2, n, seen); len(d) != 0 {
		t.Fatalf("decided %v on an ack covering s9's edit, which the author has not delivered", d)
	}
	f.s.Tick()
	if d := f.sent(core.OpFlatten, core.OpAbort); len(d) != 0 {
		t.Fatalf("a tick decided %v before the author delivered s9's edit", d)
	}
	f.deliver(kindOps, &OpsFrame{Msgs: []causal.Message{{From: 9, TS: vclock.VC{9: edit.Seq}, Payload: edit}}})
	if d := f.sent(core.OpFlatten, core.OpAbort); len(d) != 0 {
		t.Fatalf("decided %v before s9, a member once its edit is delivered, acked", d)
	}
	if d := f.ackFrom(9, n); len(d) != 1 || d[0].Kind != core.OpFlatten {
		t.Fatalf("decisions once every member acked and every acked edit is delivered: %v", d)
	}
	if got := f.r.content(); got != "x\na" && got != "a\nx" {
		t.Fatalf("flattened content %q, want s9's edit in it", got)
	}
}

// TestAuthorAbortsItsRoundsOnRestartAndStop: an author's ack table and
// deadline do not survive it, so deciding after a restart could miss a
// member. Restarted from its log, it aborts the intent it finds pending on
// its first tick; stopped gracefully, it aborts it before it goes.
func TestAuthorAbortsItsRoundsOnRestartAndStop(t *testing.T) {
	dir := t.TempDir()
	now := func() time.Time { return time.UnixMilli(0) }
	start := func() (*testReplica, *Stepper, *recLink) {
		r, link := newTestReplica(t, 1), &recLink{}
		s, err := NewStepper(1, r, now, WithLogDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		s.Connect(link)(mustEncode(t, kindSyncReq, &SyncReqFrame{From: 2, Clock: vclock.New()}))
		return r, s, link
	}
	r, s, _ := start()
	if err := s.Engine().Broadcast(r.insertAt(t, 0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	if len(r.doc.Intents()) != 1 || s.Engine().FlattensAborted() != 0 {
		t.Fatal("the round did not open")
	}
	// A crash: no Stop. The restarted author finds its intent in the log.
	r, s, link := start()
	if len(r.doc.Intents()) != 1 {
		t.Fatal("the restart lost the pending intent")
	}
	s.Tick()
	if len(r.doc.Intents()) != 0 || s.Engine().FlattensAborted() != 1 || !sentKind(t, link, core.OpAbort) {
		t.Fatalf("restarted author: %d locks, %d aborts; want its intent aborted", len(r.doc.Intents()), s.Engine().FlattensAborted())
	}
	if err := s.Engine().ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	link.frames = nil
	s.Stop()
	if len(r.doc.Intents()) != 0 || s.Engine().FlattensAborted() != 2 || !sentKind(t, link, core.OpAbort) {
		t.Fatalf("stopped author: %d locks, %d aborts; want its intent aborted", len(r.doc.Intents()), s.Engine().FlattensAborted())
	}
}

// TestStopWithAnUnbroadcastEditReportsItsIntent: a stopping author cannot
// stamp the abort of its round while a local edit is applied but was never
// broadcast — an operation's sequence number and its causal stamp must
// agree — so the intent stays pending, its region locked at every replica
// until the author restarts, and Err says so.
func TestStopWithAnUnbroadcastEditReportsItsIntent(t *testing.T) {
	r, link := newTestReplica(t, 1), &recLink{}
	s, err := NewStepper(1, r, func() time.Time { return time.UnixMilli(0) })
	if err != nil {
		t.Fatal(err)
	}
	s.Connect(link)(mustEncode(t, kindSyncReq, &SyncReqFrame{From: 2, Clock: vclock.New()}))
	e := s.Engine()
	if err := e.Broadcast(r.insertAt(t, 0, "a")); err != nil {
		t.Fatal(err)
	}
	e.ctl(func() { e.startProposal(ident.Path{ident.J(0)}) })
	if len(r.doc.Intents()) != 1 {
		t.Fatal("the round did not open")
	}
	r.insertAt(t, 1, "never broadcast")
	link.frames = nil
	s.Stop()
	if sentKind(t, link, core.OpAbort) || len(r.doc.Intents()) != 1 || e.Err() == nil {
		t.Fatalf("stop left %d intents, Err %v; want no abort, the intent pending, the stuck intent reported", len(r.doc.Intents()), e.Err())
	}
}

// sentKind reports whether the link carried an operation of the kind.
func sentKind(t *testing.T, link *recLink, kind core.OpKind) bool {
	t.Helper()
	for _, b := range link.frames {
		fr, err := DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if of, ok := fr.(*OpsFrame); ok {
			for _, m := range of.Msgs {
				if m.Payload.(core.Op).Kind == kind {
					return true
				}
			}
		}
	}
	return false
}
