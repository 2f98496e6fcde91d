package transport

import (
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// The commitment protocol, one engine at a time: a stepped engine over a
// link that records what it sends, fed real frames by the test and — where
// a test needs many transactions in one state at once — staged through the
// two tables flatten.go keeps. The rounds that need several live engines
// (unanimous-Yes commit, abort on a No, coordinator timeout, lock until
// decision, No after a local edit) are flatten_test.go's and the root
// package's TestClusterFlatten*.

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
}

func newFlatStep(t *testing.T, site ident.SiteID, opts ...Option) *flatStep {
	t.Helper()
	f := &flatStep{t: t, r: newTestReplica(t, site), link: &recLink{}, now: time.UnixMilli(0)}
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

// propose starts a whole-document round here and returns its number.
func (f *flatStep) propose() uint64 {
	f.t.Helper()
	if err := f.e.ProposeFlatten(); err != nil {
		f.t.Fatal(err)
	}
	p := framesOf[*FlatProposeFrame](f.drain())
	if len(p) != 1 {
		f.t.Fatalf("ProposeFlatten sent %d proposals", len(p))
	}
	return p[0].N
}

// voteOn delivers coord's proposal and returns the vote it drew.
func (f *flatStep) voteOn(coord ident.SiteID, n uint64, path ident.Path, obs vclock.VC) bool {
	f.t.Helper()
	f.deliver(kindFlatPropose, &FlatProposeFrame{From: coord, N: n, Path: path, Obs: obs})
	votes := framesOf[*FlatVoteFrame](f.drain())
	if len(votes) != 1 || votes[0].From != f.e.site || votes[0].Coord != coord || votes[0].N != n {
		f.t.Fatalf("proposal s%d#%d drew votes %+v", coord, n, votes)
	}
	return votes[0].Yes
}

// TestOverlappingProposalsGetOneYes: while a Yes vote is open on a region,
// a second coordinator's proposal for an enclosing, nested or identical
// region is refused — two concurrent flattens must never both commit,
// because committed flattens apply in message order — and a disjoint one
// is not. The decisions free the regions again.
func TestOverlappingProposalsGetOneYes(t *testing.T) {
	f := newFlatStep(t, 2)
	region := ident.Path{ident.J(1), ident.J(0)}
	if !f.voteOn(3, 1, region, nil) {
		t.Fatal("a quiescent replica refused the first proposal")
	}
	n := uint64(1)
	for _, tc := range []struct {
		name string
		path ident.Path
	}{
		{"enclosing", ident.Path{}},
		{"enclosing", ident.Path{ident.J(1)}},
		{"nested", ident.Path{ident.J(1), ident.J(0), ident.J(1)}},
		{"identical", region},
	} {
		if n++; f.voteOn(4, n, tc.path, nil) {
			t.Errorf("%s region %v drew a Yes while %v is locked", tc.name, tc.path, region)
		}
	}
	for _, disjoint := range []ident.Path{{ident.J(0)}, {ident.J(1), ident.J(1)}} {
		if n++; !f.voteOn(4, n, disjoint, nil) {
			t.Errorf("disjoint region %v was refused", disjoint)
		}
	}
	if len(f.e.fl.locks) != 3 {
		t.Fatalf("%d locks held, want the first round's and the two disjoint ones", len(f.e.fl.locks))
	}
	f.deliver(kindFlatDecision, &FlatDecisionFrame{From: 3, N: 1, Path: region})
	for ; n > 5; n-- {
		f.deliver(kindFlatDecision, &FlatDecisionFrame{From: 4, N: n})
	}
	if len(f.e.fl.locks) != 0 {
		t.Fatalf("%d locks survive their abort decisions", len(f.e.fl.locks))
	}
	if !f.voteOn(4, 20, ident.Path{}, nil) {
		t.Error("whole-document proposal refused after every lock was released")
	}
}

// TestReproposingAnOpenRegionAbortsOnlyTheSecondRound: a coordinator that
// proposes a region again while its first round is open votes No on the
// second itself (its own lock overlaps); the second aborts, the first is
// untouched and still commits.
func TestReproposingAnOpenRegionAbortsOnlyTheSecondRound(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	first := f.propose()
	if err := f.e.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	sent := f.drain()
	if p := framesOf[*FlatProposeFrame](sent); len(p) != 1 || p[0].N != first+1 {
		t.Fatalf("second proposal: %+v, want one numbered %d", p, first+1)
	}
	if d := framesOf[*FlatDecisionFrame](sent); len(d) != 1 || d[0].N != first+1 || d[0].Commit {
		t.Fatalf("decisions after re-proposing: %+v, want the second round aborted", d)
	}
	if r := f.e.fl.rounds[txID{1, first}]; r == nil || !r.open() || len(f.e.fl.locks) != 1 {
		t.Fatalf("first round disturbed: %+v, %d locks", r, len(f.e.fl.locks))
	}
	if d := f.voteFrom(2, first, true); len(d) != 1 || d[0].N != first || !d[0].Commit || d[0].Seq == 0 {
		t.Fatalf("decisions after the owed vote: %+v, want the first round committed", d)
	}
	if c, a, l := f.e.FlattensCommitted(), f.e.FlattensAborted(), len(f.e.fl.locks); c != 1 || a != 1 || l != 0 {
		t.Fatalf("committed %d, aborted %d, %d locks; want 1, 1, 0", c, a, l)
	}
}

// stageDueRounds opens n rounds that wait on site 2 and are already past
// their deadline.
func (f *flatStep) stageDueRounds(n int) {
	st := f.e.fl
	for i := 0; i < n; i++ {
		st.nextTx++
		tx := txID{f.e.site, st.nextTx}
		st.rounds[tx] = &round{tx: tx, waiting: map[ident.SiteID]bool{2: true}, deadline: f.now}
	}
}

// TestDueRoundsAbortInTransactionOrder: rounds that time out on one tick
// are decided in transaction order — the decisions are frames, and a
// replayable schedule cannot let map iteration pick their order.
func TestDueRoundsAbortInTransactionOrder(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		f := newFlatStep(t, 1)
		f.stageDueRounds(16)
		f.s.Tick()
		d := framesOf[*FlatDecisionFrame](f.drain())
		if len(d) != 16 || f.e.FlattensAborted() != 16 {
			t.Fatalf("%d decisions, %d aborts counted, want 16", len(d), f.e.FlattensAborted())
		}
		for i, dec := range d {
			if dec.Commit || (i > 0 && d[i-1].N >= dec.N) {
				t.Fatalf("decision %d is %+v after %+v", i, dec, d[i-1])
			}
		}
	}
}

// voteFrom delivers one vote to this coordinator and returns the decision
// frames it drew.
func (f *flatStep) voteFrom(from ident.SiteID, n uint64, yes bool) []*FlatDecisionFrame {
	f.t.Helper()
	f.deliver(kindFlatVote, &FlatVoteFrame{From: from, Coord: f.e.site, N: n, Yes: yes})
	return framesOf[*FlatDecisionFrame](f.drain())
}

// TestDuplicateYesCountsOnce: a second Yes from one site does not stand in
// for the Yes another site still owes.
func TestDuplicateYesCountsOnce(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	f.hear(3)
	n := f.propose()
	for i := 0; i < 2; i++ {
		if d := f.voteFrom(2, n, true); len(d) != 0 || f.e.FlattensCommitted() != 0 {
			t.Fatalf("Yes %d from site 2 decided the round site 3 still owes: %+v", i+1, d)
		}
	}
	if d := f.voteFrom(3, n, true); len(d) != 1 || !d[0].Commit || f.e.FlattensCommitted() != 1 {
		t.Fatalf("last owed Yes: decisions %+v, %d committed", d, f.e.FlattensCommitted())
	}
}

// TestVoteAfterDecisionIsAnsweredFromMemory: a vote that arrives after the
// decision neither revives the round nor decides it again. It is answered
// from the remembered decision — commit, with the operation's sequence
// number — and, once that has been forgotten, or for a transaction never
// heard of, with presumed abort.
func TestVoteAfterDecisionIsAnsweredFromMemory(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	f.hear(2)
	n := f.propose()
	d := f.voteFrom(2, n, true)
	if len(d) != 1 || !d[0].Commit || d[0].Seq == 0 {
		t.Fatalf("the owed Yes: decisions %+v", d)
	}
	seq := d[0].Seq
	for _, yes := range []bool{true, false} {
		if d := f.voteFrom(2, n, yes); len(d) != 1 || d[0].N != n || !d[0].Commit || d[0].Seq != seq {
			t.Fatalf("late vote (yes=%v) answered %+v, want commit at seq %d", yes, d, seq)
		}
	}
	if c, a := f.e.FlattensCommitted(), f.e.FlattensAborted(); c != 1 || a != 0 {
		t.Fatalf("late votes re-decided: committed %d, aborted %d", c, a)
	}
	// maxDecidedMemory later decisions push this one out of memory.
	f.stageDueRounds(maxDecidedMemory)
	f.s.Tick()
	f.drain()
	if len(f.e.fl.rounds) != maxDecidedMemory {
		t.Fatalf("%d rounds remembered, want %d", len(f.e.fl.rounds), maxDecidedMemory)
	}
	for _, forgotten := range []uint64{n, n + 1<<20} {
		if d := f.voteFrom(2, forgotten, true); len(d) != 1 || d[0].N != forgotten || d[0].Commit || d[0].Seq != 0 {
			t.Fatalf("vote for forgotten round %d answered %+v, want presumed abort", forgotten, d)
		}
	}
	if c := f.e.FlattensCommitted(); c != 1 {
		t.Fatalf("a vote for a forgotten round committed something: %d", c)
	}
}

// TestReusedTxIDIsReEvaluated: a proposal under a transaction id this
// replica already holds a Yes for is re-affirmed only if it is the same
// round — same path, same observed clock. Anything else is a coordinator
// that lost its counter: the old lock goes and the vote condition runs
// again, here against an edit the second proposal has not observed.
func TestReusedTxIDIsReEvaluated(t *testing.T) {
	f := newFlatStep(t, 2)
	region := ident.Path{ident.J(1)}
	if !f.voteOn(3, 7, region, nil) {
		t.Fatal("first proposal refused")
	}
	held := f.e.fl.locks[txID{3, 7}]
	if !f.voteOn(3, 7, region, nil) || f.e.fl.locks[txID{3, 7}] != held {
		t.Fatal("a duplicate of the open round was not simply re-affirmed")
	}
	// Site 4 edits; the operation is delivered here.
	w := newFlatStep(t, 4)
	w.write("x")
	for _, b := range w.link.frames {
		f.recv(b)
	}
	f.drain()
	if !f.voteOn(3, 7, region, vclock.VC{4: 1}) {
		t.Fatal("same id, same region, an obs that covers the edit: refused")
	}
	if l := f.e.fl.locks[txID{3, 7}]; l == held || l.obs.Get(4) != 1 {
		t.Fatalf("a different round under the same id kept the old lock: %+v", l)
	}
	if f.voteOn(3, 7, ident.Path{}, nil) {
		t.Fatal("same id, another region, an unobserved edit inside it: re-affirmed instead of re-evaluated")
	}
	if len(f.e.fl.locks) != 0 {
		t.Fatalf("%d locks held after the No", len(f.e.fl.locks))
	}
}

// TestSilentMemberBlocksRoundsUntilTheCap: a member of the stability
// frontier owes every round a vote, however long it has been silent; each
// round it does not answer aborts at its deadline. Its one way out is the
// way it leaves the floor — dropped and counted at the frontier cap —
// after which a round commits alone, and its next digest makes it a
// participant again. No clock moves past the deadline: silence alone
// never ends membership.
func TestSilentMemberBlocksRoundsUntilTheCap(t *testing.T) {
	const capacity = 4
	f := newFlatStep(t, 1, WithCompactEvery(capacity))
	f.write("a")
	f.hear(2) // site 2 acknowledges, then falls silent
	n := f.propose()
	if r := f.e.fl.rounds[txID{1, n}]; r == nil || !r.waiting[2] {
		t.Fatalf("the round waits on %v, want site 2 among them", r)
	}
	f.now = f.now.Add(f.e.flattenTimeout)
	f.s.Tick()
	if c, a := f.e.FlattensCommitted(), f.e.FlattensAborted(); c != 0 || a != 1 {
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
	if c := f.e.FlattensCommitted(); c != 1 {
		t.Fatalf("with site 2 dropped, a proposal committed %d rounds, want 1 alone", c)
	}
	f.hear(2)
	n = f.propose()
	if r := f.e.fl.rounds[txID{1, n}]; r == nil || !r.waiting[2] {
		t.Fatalf("after its digest the round waits on %v, want site 2 among them", r)
	}
}

// TestProposalWaitsForEveryLinksDigest: a link that has delivered no
// digest may hide members the ack table has never heard of, so a
// coordinator on it mints no round and counts an abort; once the link's
// digest arrives, it proposes.
func TestProposalWaitsForEveryLinksDigest(t *testing.T) {
	f := newFlatStep(t, 1)
	f.write("a")
	if err := f.e.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	if p := framesOf[*FlatProposeFrame](f.drain()); len(p) != 0 {
		t.Fatalf("a link that has heard nothing carried proposals %+v", p)
	}
	if a, r := f.e.FlattensAborted(), len(f.e.fl.rounds); a != 1 || r != 0 {
		t.Fatalf("aborted %d, %d rounds registered; want 1, 0", a, r)
	}
	f.hear(2)
	f.propose()
}

// TestEngineWithoutLinksCommitsAlone: with no link and no member, the
// coordinator is the whole round — it commits and applies its own flatten,
// and Stats reports the round.
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

// TestDoubtVotesResendInTransactionOrder: several in-doubt locks due in
// one tick re-send their votes in transaction order, whatever order the
// lock map iterates in — a stepped schedule replays only if emission order
// is a function of state.
func TestDoubtVotesResendInTransactionOrder(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		f := newFlatStep(t, 2)
		for n := uint64(1); n <= 8; n++ {
			tx := txID{coord: ident.SiteID(3 + n%2), n: n}
			f.e.fl.locks[tx] = &heldLock{tok: n, path: ident.Path{ident.J(uint8(n % 2))}, lastPing: f.now}
		}
		f.now = f.now.Add(f.e.flattenTimeout)
		f.s.Tick()
		votes := framesOf[*FlatVoteFrame](f.drain())
		if len(votes) != 8 {
			t.Fatalf("%d votes re-sent, want 8", len(votes))
		}
		for i := 1; i < len(votes); i++ {
			a, b := votes[i-1], votes[i]
			if (txID{a.Coord, a.N}).compare(txID{b.Coord, b.N}) >= 0 {
				t.Fatalf("votes re-sent out of transaction order: %+v then %+v", a, b)
			}
		}
	}
}
