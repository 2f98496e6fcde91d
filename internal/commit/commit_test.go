package commit

import (
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// fakeResource scripts votes and records flattens.
type fakeResource struct {
	unedited  bool
	flattened []ident.Path
	fail      bool
}

func (f *fakeResource) UneditedSince(path ident.Path, obs vclock.VC) bool { return f.unedited }
func (f *fakeResource) ApplyFlatten(path ident.Path) error {
	if f.fail {
		return errFail
	}
	f.flattened = append(f.flattened, path)
	return nil
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "fail" }

func path(s string) ident.Path { return ident.MustParsePath(s) }

func TestCommitUnanimousYes(t *testing.T) {
	coord := NewCoordinator(1)
	res := []*fakeResource{{unedited: true}, {unedited: true}, {unedited: true}}
	parts := make([]*Participant, 3)
	for i := range parts {
		parts[i] = NewParticipant(ident.SiteID(i+1), res[i])
	}
	tx, prepares := coord.Propose(ident.Path{}, vclock.VC{1: 3}, []ident.SiteID{1, 2, 3}, 0, 100)
	if len(prepares) != 3 {
		t.Fatalf("prepares = %d", len(prepares))
	}
	var decisions []Out
	for i, pr := range prepares {
		vote := parts[i].OnPrepare(pr.Msg)
		if vote.Msg.Kind != Vote || !vote.Msg.Yes || vote.To != 1 {
			t.Fatalf("vote = %+v", vote)
		}
		if parts[i].Locked() != 1 {
			t.Errorf("participant %d not locked after yes vote", i)
		}
		decisions = append(decisions, coord.OnVote(ident.SiteID(i+1), vote.Msg)...)
	}
	if len(decisions) != 1 || !decisions[0].Msg.Commit || decisions[0].To != 0 {
		t.Fatalf("decisions = %+v", decisions)
	}
	for i := range parts {
		if err := parts[i].OnDecision(decisions[0].Msg); err != nil {
			t.Fatal(err)
		}
		if len(res[i].flattened) != 1 {
			t.Errorf("participant %d did not flatten", i)
		}
		if parts[i].Locked() != 0 {
			t.Errorf("participant %d still locked", i)
		}
	}
	if coord.Pending() != 0 {
		t.Errorf("pending = %d", coord.Pending())
	}
	if tx.String() == "" {
		t.Error("empty tx id string")
	}
}

func TestAbortOnNoVote(t *testing.T) {
	coord := NewCoordinator(1)
	yes := NewParticipant(1, &fakeResource{unedited: true})
	no := NewParticipant(2, &fakeResource{unedited: false})
	_, prepares := coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{1, 2}, 0, 100)
	vYes := yes.OnPrepare(prepares[0].Msg)
	vNo := no.OnPrepare(prepares[1].Msg)
	if vNo.Msg.Yes {
		t.Fatal("edited participant voted yes")
	}
	if no.Locked() != 0 {
		t.Error("no-voter took a lock")
	}
	decisions := coord.OnVote(2, vNo.Msg)
	if len(decisions) != 1 || decisions[0].Msg.Commit {
		t.Fatalf("decisions = %+v", decisions)
	}
	// The straggler yes vote after the decision is ignored.
	if late := coord.OnVote(1, vYes.Msg); late != nil {
		t.Errorf("late vote produced %+v", late)
	}
	if err := yes.OnDecision(decisions[0].Msg); err != nil {
		t.Fatal(err)
	}
	if yes.Locked() != 0 {
		t.Error("abort did not release the lock")
	}
}

func TestCoordinatorTimeout(t *testing.T) {
	coord := NewCoordinator(1)
	_, _ = coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{1, 2}, 0, 100)
	if outs := coord.Tick(50); outs != nil {
		t.Errorf("early tick decided: %+v", outs)
	}
	outs := coord.Tick(100)
	if len(outs) != 1 || outs[0].Msg.Commit {
		t.Fatalf("timeout decision = %+v", outs)
	}
	if coord.Pending() != 0 {
		t.Error("transaction still pending after timeout")
	}
}

// Rounds that time out on the same tick are decided in transaction order:
// the decisions become frames, and a replayable schedule cannot let map
// iteration pick their order.
func TestCoordinatorTimeoutsInTransactionOrder(t *testing.T) {
	coord := NewCoordinator(1)
	for i := 0; i < 16; i++ {
		coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{1, 2}, 0, 100)
	}
	outs := coord.Tick(100)
	if len(outs) != 16 {
		t.Fatalf("%d decisions, want 16", len(outs))
	}
	for i := 1; i < len(outs); i++ {
		if !outs[i-1].Msg.Tx.Less(outs[i].Msg.Tx) {
			t.Fatalf("decision %d is %v, after %v", i, outs[i].Msg.Tx, outs[i-1].Msg.Tx)
		}
	}
}

func TestLockBlocksUntilDecision(t *testing.T) {
	// A Yes vote holds its lock until the decision — early release would
	// let edits race a late commit (see the Participant doc comment). The
	// coordinator's timeout abort is what eventually frees it.
	p := NewParticipant(1, &fakeResource{unedited: true})
	tx := TxID{Coord: 2, N: 1}
	_ = p.OnPrepare(Msg{Kind: Prepare, Tx: tx, Path: ident.Path{}})
	if p.Locked() != 1 {
		t.Fatal("no lock taken")
	}
	if err := p.OnDecision(Msg{Kind: Decision, Tx: tx, Commit: false}); err != nil {
		t.Fatal(err)
	}
	if p.Locked() != 0 {
		t.Error("abort decision did not release the lock")
	}
}

func TestOverlappingProposalsExcluded(t *testing.T) {
	// A participant holding a lock votes No on any overlapping proposal:
	// two concurrent flattens must never both commit.
	p := NewParticipant(1, &fakeResource{unedited: true})
	tx1 := TxID{Coord: 2, N: 1}
	sub := path("[10(0:s1)]").StripLastDis()
	v1 := p.OnPrepare(Msg{Kind: Prepare, Tx: tx1, Path: sub})
	if !v1.Msg.Yes {
		t.Fatal("first proposal rejected")
	}
	// Overlapping: the whole document contains the locked subtree.
	v2 := p.OnPrepare(Msg{Kind: Prepare, Tx: TxID{Coord: 3, N: 1}, Path: ident.Path{}})
	if v2.Msg.Yes {
		t.Error("overlapping (enclosing) proposal accepted during open vote")
	}
	// Overlapping: a subtree inside the locked one.
	inner := path("[100(0:s1)]").StripLastDis()
	v3 := p.OnPrepare(Msg{Kind: Prepare, Tx: TxID{Coord: 3, N: 2}, Path: inner})
	if v3.Msg.Yes {
		t.Error("overlapping (inner) proposal accepted during open vote")
	}
	// Disjoint region: fine.
	other := path("[0(0:s1)]").StripLastDis()
	v4 := p.OnPrepare(Msg{Kind: Prepare, Tx: TxID{Coord: 3, N: 3}, Path: other})
	if !v4.Msg.Yes {
		t.Error("disjoint proposal rejected")
	}
	// After the decisions release both locks, new proposals pass again.
	if err := p.OnDecision(Msg{Kind: Decision, Tx: tx1, Commit: false}); err != nil {
		t.Fatal(err)
	}
	if err := p.OnDecision(Msg{Kind: Decision, Tx: TxID{Coord: 3, N: 3}, Commit: false}); err != nil {
		t.Fatal(err)
	}
	v5 := p.OnPrepare(Msg{Kind: Prepare, Tx: TxID{Coord: 3, N: 4}, Path: ident.Path{}})
	if !v5.Msg.Yes {
		t.Error("proposal rejected after locks were released")
	}
}

func TestOnDecisionFlattenError(t *testing.T) {
	p := NewParticipant(1, &fakeResource{unedited: true, fail: true})
	m := Msg{Kind: Prepare, Tx: TxID{Coord: 2, N: 1}, Path: ident.Path{}}
	_ = p.OnPrepare(m)
	err := p.OnDecision(Msg{Kind: Decision, Tx: m.Tx, Path: m.Path, Commit: true})
	if err == nil {
		t.Error("flatten failure swallowed")
	}
}

// TestProposerCrashMidVote: the coordinator collects a Yes vote and then
// loses its state (crash). Participants must keep their locks — releasing
// without a decision could race a commit they never heard about — and the
// restarted coordinator, which knows nothing of the transaction, ignores
// re-sent votes (InFlight false is what makes a transport answer them
// with presumed abort). Only a real abort decision releases the lock.
func TestProposerCrashMidVote(t *testing.T) {
	p := NewParticipant(2, &fakeResource{unedited: true})
	coord := NewCoordinator(1)
	tx, prepares := coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{2, 3}, 0, 100)
	vote := p.OnPrepare(prepares[0].Msg)
	if !vote.Msg.Yes || p.Locked() != 1 {
		t.Fatalf("vote = %+v, locked = %d", vote, p.Locked())
	}

	// Crash: all pending state is gone.
	coord = NewCoordinator(1)
	if coord.InFlight(tx) {
		t.Fatal("restarted coordinator knows the crashed transaction")
	}
	if outs := coord.OnVote(2, vote.Msg); outs != nil {
		t.Fatalf("restarted coordinator decided on a stale vote: %+v", outs)
	}
	if p.Locked() != 1 {
		t.Fatal("participant released its lock without a decision")
	}

	// The presumed-abort answer (what a transport sends for an unknown
	// transaction) releases the lock and leaves no side effects.
	res := &fakeResource{unedited: true}
	p2 := NewParticipant(2, res)
	_ = p2.OnPrepare(prepares[0].Msg)
	if err := p2.OnDecision(Msg{Kind: Decision, Tx: tx, Commit: false}); err != nil {
		t.Fatal(err)
	}
	if p2.Locked() != 0 || len(res.flattened) != 0 {
		t.Fatalf("abort left locked=%d flattened=%d", p2.Locked(), len(res.flattened))
	}
}

// TestDuplicateProposalSameRegion: a coordinator that re-proposes the
// same region while the first round is open gets a No (the participant's
// own outstanding lock overlaps), and the duplicate round aborts without
// disturbing the first.
func TestDuplicateProposalSameRegion(t *testing.T) {
	coord := NewCoordinator(1)
	p := NewParticipant(2, &fakeResource{unedited: true})
	sub := path("[10(0:s1)]").StripLastDis()

	tx1, prep1 := coord.Propose(sub, vclock.VC{}, []ident.SiteID{2}, 0, 100)
	v1 := p.OnPrepare(prep1[0].Msg)
	if !v1.Msg.Yes {
		t.Fatal("first proposal rejected")
	}

	tx2, prep2 := coord.Propose(sub, vclock.VC{}, []ident.SiteID{2}, 0, 100)
	v2 := p.OnPrepare(prep2[0].Msg)
	if v2.Msg.Yes {
		t.Fatal("duplicate proposal over a locked region accepted")
	}
	outs := coord.OnVote(2, v2.Msg)
	if len(outs) != 1 || outs[0].Msg.Commit {
		t.Fatalf("duplicate proposal decision = %+v", outs)
	}
	if err := p.OnDecision(outs[0].Msg); err != nil {
		t.Fatal(err)
	}
	if coord.InFlight(tx2) {
		t.Fatal("aborted duplicate still in flight")
	}

	// The first round is untouched and still commits.
	if !coord.InFlight(tx1) {
		t.Fatal("original round lost")
	}
	outs = coord.OnVote(2, v1.Msg)
	if len(outs) != 1 || !outs[0].Msg.Commit {
		t.Fatalf("original round decision = %+v", outs)
	}
	if err := p.OnDecision(outs[0].Msg); err != nil {
		t.Fatal(err)
	}
	if p.Locked() != 0 {
		t.Fatal("locks leaked across the duplicate round")
	}
}

// TestVoteAfterLocalEdit: a replica that executed an edit the coordinator
// has not observed votes No ("if this site observes the execution of an
// insert, delete or flatten within the sub-tree to be flattened, that
// site votes No"), takes no lock, and the round aborts with no effect.
func TestVoteAfterLocalEdit(t *testing.T) {
	coord := NewCoordinator(1)
	res := &fakeResource{unedited: true}
	p := NewParticipant(2, res)

	// Round 1 aborts for unrelated reasons (deadline): the participant's
	// lock is released and the replica edits afterwards.
	_, prep := coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{2, 3}, 0, 100)
	if v := p.OnPrepare(prep[0].Msg); !v.Msg.Yes {
		t.Fatal("quiescent replica voted No")
	}
	outs := coord.Tick(100)
	if len(outs) != 1 || outs[0].Msg.Commit {
		t.Fatalf("deadline decision = %+v", outs)
	}
	if err := p.OnDecision(outs[0].Msg); err != nil {
		t.Fatal(err)
	}
	res.unedited = false // the local edit happens here

	// Round 2 must be refused: the edit is beyond the coordinator's view.
	_, prep = coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{2}, 0, 100)
	v := p.OnPrepare(prep[0].Msg)
	if v.Msg.Yes {
		t.Fatal("replica with an unobserved edit voted Yes")
	}
	if p.Locked() != 0 {
		t.Fatal("No vote took a lock")
	}
	outs = coord.OnVote(2, v.Msg)
	if len(outs) != 1 || outs[0].Msg.Commit {
		t.Fatalf("decision after No vote = %+v", outs)
	}
	if len(res.flattened) != 0 {
		t.Fatal("aborted rounds flattened something")
	}
}

// TestVotesAfterDecisionIgnored: late votes for a decided (or timed-out)
// transaction neither revive it nor decide it twice.
func TestVotesAfterDecisionIgnored(t *testing.T) {
	coord := NewCoordinator(1)
	tx, _ := coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{2, 3}, 0, 100)
	if !coord.InFlight(tx) {
		t.Fatal("fresh proposal not in flight")
	}
	if outs := coord.Tick(250); len(outs) != 1 || outs[0].Msg.Commit {
		t.Fatalf("timeout decision = %+v", outs)
	}
	if coord.InFlight(tx) {
		t.Fatal("timed-out proposal still in flight")
	}
	if outs := coord.OnVote(2, Msg{Kind: Vote, Tx: tx, Yes: true}); outs != nil {
		t.Fatalf("late vote decided: %+v", outs)
	}
	if outs := coord.OnVote(3, Msg{Kind: Vote, Tx: tx, Yes: false}); outs != nil {
		t.Fatalf("late No vote decided: %+v", outs)
	}
	// Duplicate abort deliveries at a participant are harmless.
	p := NewParticipant(2, &fakeResource{unedited: true})
	_ = p.OnPrepare(Msg{Kind: Prepare, Tx: tx, Path: ident.Path{}})
	for i := 0; i < 2; i++ {
		if err := p.OnDecision(Msg{Kind: Decision, Tx: tx, Commit: false}); err != nil {
			t.Fatal(err)
		}
	}
	if p.Locked() != 0 {
		t.Fatal("lock survived the abort")
	}
}

func TestDuplicateVotesIgnored(t *testing.T) {
	coord := NewCoordinator(1)
	_, prepares := coord.Propose(ident.Path{}, vclock.VC{}, []ident.SiteID{1, 2}, 0, 100)
	_ = prepares
	v := Msg{Kind: Vote, Tx: TxID{Coord: 1, N: 1}, Yes: true}
	if outs := coord.OnVote(1, v); outs != nil {
		t.Fatalf("decision after one of two votes: %+v", outs)
	}
	if outs := coord.OnVote(1, v); outs != nil {
		t.Fatalf("duplicate vote decided: %+v", outs)
	}
	outs := coord.OnVote(2, v)
	if len(outs) != 1 || !outs[0].Msg.Commit {
		t.Fatalf("final vote: %+v", outs)
	}
	// Votes for unknown transactions are ignored.
	if outs := coord.OnVote(1, Msg{Kind: Vote, Tx: TxID{Coord: 9, N: 9}, Yes: true}); outs != nil {
		t.Errorf("unknown tx vote produced %+v", outs)
	}
}
