// Package commit implements the distributed commitment procedure that makes
// flatten safe (Section 4.2.1 of the Treedoc paper): "When executing flatten
// at some site, if this site observes the execution of an insert, delete or
// flatten within the sub-tree to be flattened, that site votes No to
// commitment, otherwise it votes Yes. The operation succeeds only if all
// sites vote Yes, otherwise it has no effect."
//
// The protocol here is two-phase commit with presumed abort: the paper notes
// "any distributed commitment protocol from the literature will do". A
// participant that votes Yes locks the subtree against local edits until the
// decision (or a timeout) arrives, which closes the window between vote and
// decision; remote edits are excluded by the vote condition itself, because
// a site that issued or applied a subtree edit the coordinator has not seen
// votes No.
//
// The state machines are transport-agnostic and single-threaded;
// internal/transport's engine runs them on its actor (flatten.go) and owns
// everything around them: frames, region locks, deadlines, membership.
package commit

import (
	"fmt"
	"sort"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// TxID identifies a flatten transaction.
type TxID struct {
	Coord ident.SiteID
	N     uint64
}

// Less orders transaction ids by coordinator, then number.
func (t TxID) Less(u TxID) bool {
	if t.Coord != u.Coord {
		return t.Coord < u.Coord
	}
	return t.N < u.N
}

// String renders the transaction id.
func (t TxID) String() string { return fmt.Sprintf("tx(s%d#%d)", t.Coord, t.N) }

// MsgKind is the protocol message type.
type MsgKind uint8

const (
	// Prepare asks a participant to vote on flattening a subtree.
	Prepare MsgKind = iota + 1
	// Vote answers a Prepare.
	Vote
	// Decision announces commit or abort.
	Decision
)

// Msg is a protocol message.
type Msg struct {
	Kind MsgKind
	Tx   TxID
	// Path is the subtree to flatten (Prepare and Decision).
	Path ident.Path
	// Obs is the coordinator's delivered vector clock at proposal time: the
	// state of the subtree being flattened (Prepare).
	Obs vclock.VC
	// Yes is the participant's vote (Vote).
	Yes bool
	// Commit is the decision (Decision).
	Commit bool
}

// Out is an outbound message with its destination (0 = broadcast to all
// participants).
type Out struct {
	To  ident.SiteID
	Msg Msg
}

// Resource is the coordinator's and participants' view of the document
// replica.
type Resource interface {
	// UneditedSince reports whether the subtree at path has seen no insert,
	// delete or flatten beyond the causal history obs. False means vote No.
	UneditedSince(path ident.Path, obs vclock.VC) bool
	// ApplyFlatten flattens the subtree; called exactly once on commit.
	ApplyFlatten(path ident.Path) error
}

// Coordinator drives flatten transactions for one site.
type Coordinator struct {
	site    ident.SiteID
	n       uint64
	pending map[TxID]*txState
}

type txState struct {
	path     ident.Path
	waiting  map[ident.SiteID]bool
	deadline int64
	done     bool
}

// NewCoordinator creates a coordinator for the given site.
func NewCoordinator(site ident.SiteID) *Coordinator {
	return &Coordinator{site: site, pending: make(map[TxID]*txState)}
}

// SeedTxCounter raises the transaction counter floor. A coordinator that
// restarts loses its counter; seeding with a restart-unique value (e.g. a
// timestamp) keeps it from re-minting a TxID that participants may still
// hold state for from before the crash.
func (c *Coordinator) SeedTxCounter(n uint64) {
	if n > c.n {
		c.n = n
	}
}

// Propose starts a transaction to flatten path across the participants
// (which should include the coordinator's own site, so the local replica
// votes and locks like everyone else). obs is the coordinator's delivered
// vector clock; now and timeout set the abort deadline.
func (c *Coordinator) Propose(path ident.Path, obs vclock.VC, participants []ident.SiteID, now, timeout int64) (TxID, []Out) {
	c.n++
	tx := TxID{Coord: c.site, N: c.n}
	st := &txState{path: path.Clone(), waiting: make(map[ident.SiteID]bool, len(participants)), deadline: now + timeout}
	outs := make([]Out, 0, len(participants))
	for _, p := range participants {
		st.waiting[p] = true
		outs = append(outs, Out{To: p, Msg: Msg{Kind: Prepare, Tx: tx, Path: st.path, Obs: obs.Clone()}})
	}
	c.pending[tx] = st
	return tx, outs
}

// OnVote ingests a vote. When all participants voted Yes it emits the
// commit decision; on the first No it emits the abort decision.
func (c *Coordinator) OnVote(from ident.SiteID, m Msg) []Out {
	st, ok := c.pending[m.Tx]
	if !ok || st.done {
		return nil
	}
	if !m.Yes {
		return c.decide(m.Tx, st, false)
	}
	delete(st.waiting, from)
	if len(st.waiting) == 0 {
		return c.decide(m.Tx, st, true)
	}
	return nil
}

// Tick aborts transactions whose deadline passed (participant crash or
// partition): presumed abort keeps the protocol safe, just not live for
// that transaction.
func (c *Coordinator) Tick(now int64) []Out {
	var due []TxID
	for tx, st := range c.pending {
		if !st.done && now >= st.deadline {
			due = append(due, tx)
		}
	}
	// Decisions become frames: emit them in transaction order, not map order.
	sort.Slice(due, func(i, j int) bool { return due[i].Less(due[j]) })
	var outs []Out
	for _, tx := range due {
		outs = append(outs, c.decide(tx, c.pending[tx], false)...)
	}
	return outs
}

func (c *Coordinator) decide(tx TxID, st *txState, commit bool) []Out {
	st.done = true
	delete(c.pending, tx)
	return []Out{{To: 0, Msg: Msg{Kind: Decision, Tx: tx, Path: st.path, Commit: commit}}}
}

// Pending returns the number of undecided transactions.
func (c *Coordinator) Pending() int { return len(c.pending) }

// InFlight reports whether tx is still undecided at this coordinator. A
// transport that receives a vote for a transaction that is not in flight
// answers from its decision memory — or presumes abort — instead of
// feeding the vote to OnVote.
func (c *Coordinator) InFlight(tx TxID) bool {
	_, ok := c.pending[tx]
	return ok
}

// Participant is one site's voter. A Yes vote locks the subtree against
// local edits — and against votes for overlapping proposals — until the
// decision arrives. The lock must block until the decision: a participant
// that released early could accept edits that a late-arriving commit would
// then destroy. The coordinator's timeout (Coordinator.Tick) guarantees a
// decision is eventually broadcast, so in a crash-free deployment every
// lock is eventually released; tolerating coordinator crashes needs the
// fault-tolerant commitment the paper defers to (Gray & Lamport).
type Participant struct {
	site  ident.SiteID
	res   Resource
	locks map[TxID]lockState
}

type lockState struct {
	path ident.Path
}

// NewParticipant creates a participant bound to a replica.
func NewParticipant(site ident.SiteID, res Resource) *Participant {
	return &Participant{site: site, res: res, locks: make(map[TxID]lockState)}
}

// OnPrepare evaluates a Prepare and returns the vote. A participant votes
// No when the replica observed a conflicting edit (Resource.UneditedSince)
// or when it already holds a lock for an overlapping region: two concurrent
// flatten proposals must never both commit, because committed flattens
// apply in message order, not causal order.
func (p *Participant) OnPrepare(m Msg) Out {
	yes := p.res.UneditedSince(m.Path, m.Obs)
	if yes {
		for _, l := range p.locks {
			if regionsOverlap(l.path, m.Path) {
				yes = false
				break
			}
		}
	}
	if yes {
		p.locks[m.Tx] = lockState{path: m.Path.Clone()}
	}
	return Out{To: m.Tx.Coord, Msg: Msg{Kind: Vote, Tx: m.Tx, Yes: yes}}
}

// OnDecision applies a decision: commit flattens the subtree, abort leaves
// no side effects ("causing no harm"). Either way the lock is released.
func (p *Participant) OnDecision(m Msg) error {
	delete(p.locks, m.Tx)
	if !m.Commit {
		return nil
	}
	if err := p.res.ApplyFlatten(m.Path); err != nil {
		return fmt.Errorf("commit: %v flatten at %v: %w", m.Tx, m.Path, err)
	}
	return nil
}

// regionsOverlap reports whether the identifier regions of two structural
// paths intersect: subtree regions are intervals, and they intersect
// exactly when one node lies inside the other's subtree (one structural
// path extends the other's walk).
func regionsOverlap(a, b ident.Path) bool {
	return pathInRegion(a, b) || pathInRegion(b, a)
}

// pathInRegion reports whether the node at structural path a lies inside
// the region of the node at structural path b.
func pathInRegion(a, b ident.Path) bool {
	if len(b) == 0 {
		return true // the root's region is everything
	}
	if len(a) < len(b) {
		return false
	}
	for i := 0; i < len(b)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(b)-1].Bit == b[len(b)-1].Bit
}

// Locked returns the number of held locks.
func (p *Participant) Locked() int { return len(p.locks) }
