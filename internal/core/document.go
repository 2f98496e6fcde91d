package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Config parameterises a Document replica.
type Config struct {
	// Site is this replica's identifier; it must be non-zero (zero is the
	// canonical disambiguator's reserved site) and unique across replicas.
	Site ident.SiteID
	// Mode selects the disambiguator scheme: SDIS (tombstones) or UDIS
	// (immediate discard). Default SDIS.
	Mode ident.Mode
	// Strategy selects identifier allocation. Default Balanced.
	Strategy Strategy
	// Cost is the disambiguator size model for overhead accounting; defaults
	// to the paper's Section 5 model for the chosen Mode.
	Cost ident.Cost
	// Flatten configures the local flatten heuristic; the zero value never
	// flattens.
	Flatten FlattenPolicy
}

// FlattenPolicy drives the heuristic structural compaction of Section 4.2
// as evaluated in Section 5.1: every Interval revisions, flatten the largest
// subtree that has not been edited for at least ColdRevisions revisions.
type FlattenPolicy struct {
	// Interval is the number of revisions between flatten attempts; 0
	// disables the heuristic.
	Interval int
	// ColdRevisions is how many revisions a subtree must have been quiet to
	// count as cold. Zero means "not edited in the current revision".
	ColdRevisions int64
	// MinNodes is the smallest subtree (in tree nodes) worth flattening.
	// Zero defaults to 2.
	MinNodes int
}

// Document is one replica of the Treedoc CRDT (Section 2.2's atom buffer).
// Local edits return operations for propagation; remote operations are
// replayed with Apply. The type is not safe for concurrent use; the public
// treedoc package adds locking.
type Document struct {
	cfg      Config
	tree     *doctree.Tree
	strategy Strategy
	// trusted marks the package's own strategies, whose allocations are
	// exhaustively property-tested (order_prop_test.go): the per-insert
	// Between re-verification is skipped for them and runs only for
	// third-party Strategy implementations, whose bugs would otherwise
	// silently break convergence.
	trusted  bool
	counter  uint32 // per-site persistent counter (UDIS disambiguators)
	seq      uint64 // local operation sequence
	revision int64  // revision clock for the flatten heuristic

	// version is the replica's applied version vector: per site, the
	// highest operation sequence number whose effects are in the tree —
	// local edits at generation, remote operations at Apply. It is the
	// clock a state snapshot carries, telling a receiver exactly which
	// messages the snapshot stands in for.
	version vclock.VC

	// applied tracks per-site op counts for duplicate detection in direct
	// Apply use; the causal layer performs the authoritative filtering.
	opsApplied uint64
	netBits    uint64 // accumulated network cost of all ops seen

	// An identifier has elements (ident.Path) only inside a call, in one of
	// these buffers; what leaves the document is its packed form.
	// scratchP/scratchF hold the neighbours of a local edit's gap and idBuf
	// the identifier a strategy builds between them, or the elements of the
	// remote operation being applied. Strategies read the neighbours and
	// write idBuf; nothing retains any of them past the call.
	scratchP ident.Path
	scratchF ident.Path
	idBuf    ident.Path

	// Insert-run cache: typing and pastes insert at consecutive gaps, so
	// after an insert at gap i the neighbours of gap i+1 are already known —
	// the atom just inserted and the unchanged right neighbour. runGap is
	// the gap a continuing insert would land on (-1 when invalid); runP/runF
	// are its neighbour identifiers in buffers of their own (runF nil =
	// document end), and runAt where they lie. Any other mutation
	// invalidates the cache.
	runGap int
	runP   ident.Path
	runF   ident.Path
	runAt  doctree.Gap
}

// NewDocument creates an empty replica. It returns an error for invalid
// configuration (zero or out-of-range site).
func NewDocument(cfg Config) (*Document, error) {
	if cfg.Site == 0 || cfg.Site > ident.MaxSiteID {
		return nil, fmt.Errorf("core: site must be in [1, 2^48); got %d", cfg.Site)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ident.SDIS
	}
	if cfg.Strategy == nil {
		cfg.Strategy = Balanced{}
	}
	if cfg.Cost == (ident.Cost{}) {
		cfg.Cost = ident.PaperCost(cfg.Mode)
	}
	if cfg.Flatten.MinNodes == 0 {
		cfg.Flatten.MinNodes = 2
	}
	trusted := false
	switch cfg.Strategy.(type) {
	case Naive, Balanced:
		trusted = true
	}
	return &Document{cfg: cfg, tree: doctree.New(), strategy: cfg.Strategy, trusted: trusted, version: vclock.New(), runGap: -1}, nil
}

// Restore rebuilds a replica from a deserialised tree and its persistent
// allocation state (the per-site operation sequence and UDIS counter, which
// must survive restarts so the site never re-mints identifiers). version is
// the applied version vector the snapshot was taken at; nil derives the
// pre-versioned form {site: seq}, which is correct for single-site
// snapshots and a safe under-approximation otherwise.
func Restore(cfg Config, tree *doctree.Tree, seq uint64, counter uint32, version vclock.VC) (*Document, error) {
	d, err := NewDocument(cfg)
	if err != nil {
		return nil, err
	}
	d.tree = tree
	d.seq = seq
	d.counter = counter
	if version != nil {
		d.version = version.Clone()
	} else if seq > 0 {
		d.version[cfg.Site] = seq
	}
	if d.version.Get(cfg.Site) > d.seq {
		d.seq = d.version.Get(cfg.Site)
	}
	return d, nil
}

// Version returns a copy of the applied version vector.
func (d *Document) Version() vclock.VC { return d.version.Clone() }

// ErrRegionLocked reports a local edit blocked by an outstanding flatten
// commitment vote on its region: a replica that voted Yes must not edit
// the subtree until the decision arrives (internal/transport/flatten.go).
// Callers retry after the commitment decides.
var ErrRegionLocked = errors.New("core: region locked by pending flatten commitment")

// ErrStaleSnapshot reports an InstallSnapshot whose version vector does
// not dominate the replica's applied state: installing it would silently
// discard operations the replica has already executed.
var ErrStaleSnapshot = errors.New("core: snapshot does not cover replica state")

// InstallSnapshot replaces the replica's document state with a decoded
// snapshot taken elsewhere, used by snapshot-based catch-up: a receiver
// whose whole history is covered by the snapshot's version vector adopts
// the state instead of replaying the operation log. The replica's own
// identity (site) is kept; its allocation state advances so it never
// re-mints a sequence number or disambiguator the snapshot already
// contains — from the snapshot's recorded seq/counter when the snapshot
// originated here (origin == site), otherwise from the version vector and
// a scan of the adopted tree's disambiguators.
func (d *Document) InstallSnapshot(tree *doctree.Tree, version vclock.VC, origin ident.SiteID, originSeq uint64, originCounter uint32) error {
	if !version.Dominates(d.version) {
		return ErrStaleSnapshot
	}
	d.runGap = -1
	d.tree = tree
	d.version = version.Clone()
	if v := d.version.Get(d.cfg.Site); v > d.seq {
		d.seq = v
	}
	if origin == d.cfg.Site {
		if originSeq > d.seq {
			d.seq = originSeq
		}
		if originCounter > d.counter {
			d.counter = originCounter
		}
	} else if c := tree.MaxCounter(d.cfg.Site); c > d.counter {
		d.counter = c
	}
	return nil
}

// Seq returns the local operation sequence number (persisted by snapshots).
func (d *Document) Seq() uint64 { return d.seq }

// Counter returns the UDIS counter (persisted by snapshots).
func (d *Document) Counter() uint32 { return d.counter }

// Config returns the replica configuration.
func (d *Document) Config() Config { return d.cfg }

// Site returns the replica's site identifier.
func (d *Document) Site() ident.SiteID { return d.cfg.Site }

// Len returns the number of atoms in the document.
func (d *Document) Len() int { return d.tree.Len() }

// Content returns the document's atoms in order.
func (d *Document) Content() []string { return d.tree.Content() }

// ContentString returns the document joined with newlines, the natural
// rendering for line- and paragraph-granularity atoms.
func (d *Document) ContentString() string { return strings.Join(d.tree.Content(), "\n") }

// AtomAt returns the atom at index i.
func (d *Document) AtomAt(i int) (string, error) { return d.tree.AtomAt(i) }

// VisitRange streams the atoms of the index range [from, to) in document
// order in one tree walk, O(height + to - from); fn returning false stops
// the iteration early.
func (d *Document) VisitRange(from, to int, fn func(atom string) bool) error {
	return d.tree.VisitRange(from, to, fn)
}

// IDAt returns the position identifier of the atom at index i.
func (d *Document) IDAt(i int) (ident.Path, error) { return d.tree.IDAt(i) }

// nextDis mints a fresh disambiguator: (counter, site) under UDIS
// (Section 3.3.1), bare site under SDIS (Section 3.3.2).
func (d *Document) nextDis() ident.Dis {
	if d.cfg.Mode == ident.UDIS {
		d.counter++
		return ident.Dis{Counter: d.counter, Site: d.cfg.Site}
	}
	return ident.Dis{Site: d.cfg.Site}
}

// neighborIDs returns the identifiers around insertion gap i in the reused
// scratch buffers, and where they lie. The returned paths are valid until
// the next neighborIDs call; callers must not retain them (an op holds its
// identifier packed).
func (d *Document) neighborIDs(i int) (p, f ident.Path, at doctree.Gap, err error) {
	n := d.tree.Len()
	if i < 0 || i > n {
		return nil, nil, at, fmt.Errorf("doctree: gap %d out of range [0,%d]", i, n)
	}
	if i > 0 && i < n {
		// Interior gap: one fused descent resolves both neighbours, walking
		// their shared identifier prefix once.
		if d.scratchP, d.scratchF, at, err = d.tree.AppendNeighborIDs(d.scratchP[:0], d.scratchF[:0], i); err != nil {
			return nil, nil, at, err
		}
		return d.scratchP, d.scratchF, at, nil
	}
	if i < n {
		if d.scratchF, at.F, err = d.tree.AppendIDAt(d.scratchF[:0], i); err != nil {
			return nil, nil, at, err
		}
		f = d.scratchF
	}
	if i > 0 {
		if d.scratchP, at.P, err = d.tree.AppendIDAt(d.scratchP[:0], i-1); err != nil {
			return nil, nil, at, err
		}
		p = d.scratchP
	}
	return p, f, at, nil
}

// InsertAt inserts atom at index i (0 ≤ i ≤ Len) as a local edit and returns
// the operation to propagate.
//
//treedoc:noalloc
func (d *Document) InsertAt(i int, atom string) (Op, error) {
	var p, f ident.Path
	var at doctree.Gap
	var err error
	if i > 0 && i == d.runGap {
		// Continuing an insert run: the left neighbour is the atom inserted
		// by the previous call and the right neighbour is unchanged, so the
		// two root-to-leaf locate walks are skipped entirely.
		p, f, at = d.runP, d.runF, d.runAt
	} else if p, f, at, err = d.neighborIDs(i); err != nil {
		return Op{}, err
	}
	// The tree is walked once: the neighbour descent's slots carry the
	// free-slot scan, the collision probe and the insert.
	id, from, err := d.allocate(p, f, at)
	if err != nil {
		return Op{}, err
	}
	op, s, err := d.insertLocal(id, from, ident.Pack(id), atom) //treedoc:escape the packed identifier is all of it the op holds
	if err != nil {
		return Op{}, err
	}
	d.primeRun(i+1, f, doctree.Gap{P: s, F: at.F})
	return op, nil
}

// insertLocal mints and applies the insert of atom at a local edit's
// freshly built identifier: id its elements, k their packed form, from a
// slot on its route (zero: none known). It returns where the atom landed.
func (d *Document) insertLocal(id ident.Path, from doctree.Slot, k ident.Packed, atom string) (Op, doctree.Slot, error) {
	d.seq++
	op := Op{Kind: OpInsert, ID: k, Atom: atom, Site: d.cfg.Site, Seq: d.seq}
	s, err := d.tree.InsertFrom(from, id, atom)
	if err != nil {
		return op, s, err
	}
	d.noteApplied(op, id)
	return op, s, nil
}

// primeRun records the neighbours of gap g for a continuing insert run:
// the just-inserted identifier on the left, f on the right, and where they
// lie. The identifier lies in idBuf, which the cache takes whole by
// trading buffers (the one it gives back held the previous left
// neighbour, now spent); f is scratch-backed and copied. apply invalidates
// the cache on every mutation, so it only survives between back-to-back
// local inserts, which keep its slots valid.
func (d *Document) primeRun(g int, f ident.Path, at doctree.Gap) {
	d.runGap, d.runAt = g, at
	d.runP, d.idBuf = d.idBuf, d.runP
	if f == nil {
		d.runF = nil
	} else {
		d.runF = append(d.runF[:0], f...)
	}
}

// allocate mints a fresh identifier strictly between p and f, which lie at
// at, that is not a used identifier, and returns it in idBuf with a slot on
// its route. Under SDIS the same site re-inserting at the same gap would
// otherwise re-mint a tombstone's identifier (the disambiguator is just
// the site), which would not commute with deletes concurrent to the new
// insert; tombstones mark identifiers as used precisely to prevent this
// (Section 3.3.2). On a collision the tombstone becomes the new lower
// bound and allocation retries deeper: the used identifiers between p and
// f are finite, so this terminates. UDIS never collides (fresh counters).
func (d *Document) allocate(p, f ident.Path, at doctree.Gap) (ident.Path, doctree.Slot, error) {
	dis := d.nextDis()
	for {
		id, from := d.strategy.NewID(d.tree, d.idBuf[:0], p, f, at, dis)
		d.idBuf = id
		if !d.trusted {
			if err := checkAllocation(p, id, f); err != nil {
				return nil, doctree.Slot{}, err
			}
			from = doctree.Slot{} // nor is its route taken on trust
		}
		if d.cfg.Mode == ident.UDIS {
			// A UDIS disambiguator is (counter, site) with a counter this
			// site has never used before, and the identifier ends with it:
			// it cannot collide with any used identifier (Section 3.3.1's
			// uniqueness argument), so the tree probe is skipped.
			return id, from, nil
		}
		// The identifier ends with this site's disambiguator, never the
		// canonical one, so a used identifier is always found with its
		// slot, never merely presumed used inside a flattened region.
		used, collides := d.tree.ExistsFrom(from, id)
		if !collides {
			return id, from, nil
		}
		p, at.P = d.boundBelow(), used
	}
}

// boundBelow makes the identifier in idBuf the lower bound of the next one
// built: it moves to scratchP, whose buffer — the bound it replaces — idBuf
// takes over.
func (d *Document) boundBelow() ident.Path {
	d.scratchP, d.idBuf = d.idBuf, d.scratchP
	return d.scratchP
}

// InsertRunAt inserts a consecutive run of atoms starting at index i and
// returns the operations, one per atom. Strategies may pack the run into a
// minimal subtree (Section 4.1's revision-grouping variant).
func (d *Document) InsertRunAt(i int, atoms []string) ([]Op, error) {
	switch len(atoms) {
	case 0:
		return nil, nil
	case 1:
		// A run of one is an insert: the same neighbours, and NewID rather
		// than a one-identifier NewRun to pack and unpack again.
		op, err := d.InsertAt(i, atoms[0])
		if err != nil {
			return nil, err
		}
		return []Op{op}, nil
	}
	p, f, at, err := d.neighborIDs(i)
	if err != nil {
		return nil, err
	}
	var ids []ident.Packed
	ids, d.idBuf = d.strategy.NewRun(d.tree, d.idBuf, p, f, d.nextDis(), len(atoms))
	if len(ids) != len(atoms) {
		return nil, fmt.Errorf("core: strategy returned %d ids for %d atoms", len(ids), len(atoms))
	}
	ops := make([]Op, 0, len(atoms))
	prev := p
	usable := true
	for j := range atoms {
		if j > 0 {
			prev = d.boundBelow()
		}
		var id ident.Path
		k := ids[j]
		if usable {
			id = k.AppendPath(d.idBuf[:0])
			d.idBuf = id
			// Every identifier in the run ends with this edit's fresh
			// (counter, site) disambiguator, so under UDIS none can collide
			// with a used identifier (the same Section 3.3.1 uniqueness
			// argument allocate relies on) and the tree probes are skipped.
			// The Between re-verification runs for third-party strategies
			// only, like allocate's.
			if (!d.trusted && !ident.Between(prev, id, f)) ||
				(d.cfg.Mode != ident.UDIS && d.tree.Exists(id)) {
				// A used identifier (or an out-of-order substitute earlier in
				// the run) spoils the precomputed packing; allocate the rest
				// individually.
				usable = false
			}
		}
		var from doctree.Slot // a packed identifier resumes from the walk cache
		if !usable {
			var err error
			id, from, err = d.allocate(prev, f, at)
			if err != nil {
				return nil, err
			}
			k = ident.Pack(id)
		}
		op, s, err := d.insertLocal(id, from, k, atoms[j])
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		at.P = s // where prev, the next atom's lower bound, lies
	}
	d.primeRun(i+len(atoms), f, at)
	return ops, nil
}

// DeleteAt deletes the atom at index i as a local edit and returns the
// operation to propagate.
//
//treedoc:noalloc
func (d *Document) DeleteAt(i int) (Op, error) {
	// One fused descent locates the atom, emits its identifier into the
	// scratch buffer, and deletes it; only the packed form that escapes into
	// the op touches the heap. Going through apply instead would re-walk the
	// identifier the locate descent just produced.
	sp, err := d.tree.DeleteAtIndex(i, d.cfg.Mode == ident.UDIS, d.scratchP[:0])
	if err != nil {
		return Op{}, fmt.Errorf("core: delete at %d: %w", i, err)
	}
	d.scratchP = sp
	d.seq++
	k := ident.Pack(sp) //treedoc:escape the packed identifier is all of it the op holds
	op := Op{Kind: OpDelete, ID: k, Site: d.cfg.Site, Seq: d.seq}
	d.noteApplied(op, sp)
	return op, nil
}

// Apply replays a remote operation. Operations must arrive in
// happened-before order (the causal layer's contract); under that contract
// every pair of concurrent operations commutes and replicas converge
// (Section 2.2).
func (d *Document) Apply(op Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	return d.apply(op)
}

// apply executes a validated operation whose identifier is still packed: a
// remote one. This is where a held identifier becomes a walked one.
func (d *Document) apply(op Op) error {
	d.idBuf = op.ID.AppendPath(d.idBuf[:0])
	return d.applyAt(op, d.idBuf)
}

// applyAt executes op, whose identifier's elements are id — unpacked by
// apply, or the ones a local edit just built.
func (d *Document) applyAt(op Op, id ident.Path) error {
	switch op.Kind {
	case OpInsert:
		if err := d.tree.InsertID(id, op.Atom); err != nil {
			return err
		}
	case OpDelete:
		if _, err := d.tree.DeleteID(id, d.cfg.Mode == ident.UDIS); err != nil {
			return err
		}
	case OpFlatten:
		if err := d.tree.Flatten(id); err != nil {
			return err
		}
	}
	d.noteApplied(op, id)
	return nil
}

// noteApplied records an operation's bookkeeping after its tree mutation has
// been performed — by applyAt's dispatch, or by a fused edit that already
// mutated the tree during its locate descent (DeleteAt). id holds the
// elements of op.ID.
func (d *Document) noteApplied(op Op, id ident.Path) {
	d.runGap = -1 // any mutation invalidates the insert-run cache; InsertAt re-primes it
	if op.Seq > d.version.Get(op.Site) {
		d.version[op.Site] = op.Seq
	}
	if op.Site == d.cfg.Site && op.Seq > d.seq {
		// Our own operation replayed from a durable log or a snapshot: the
		// allocation state must advance past it, or a restarted replica
		// would re-mint the same sequence numbers and disambiguators for
		// fresh edits and peers would discard them as duplicates. A locally
		// minted op (op.Seq == d.seq, advanced by the caller) carries only
		// disambiguators at or below the current counter by construction,
		// so the identifier scan runs only on genuine replays.
		d.seq = op.Seq
		for _, el := range id {
			if el.Kind == ident.Mini && el.Dis.Site == d.cfg.Site && el.Dis.Counter > d.counter {
				d.counter = el.Dis.Counter
			}
		}
	}
	d.opsApplied++
	d.netBits += uint64(op.NetworkBits(d.cfg.Cost))
}

// EndRevision advances the revision clock and runs the flatten heuristic
// when due: every Interval revisions, the largest subtree untouched for
// ColdRevisions revisions is flattened (Section 5.1). It returns the
// flattened subtree's structural path, or nil.
//
// This is the local (benchmark-replay) form used throughout the paper's
// evaluation; the distributed form runs the same flatten under the
// commitment protocol of internal/transport/flatten.go.
func (d *Document) EndRevision() ident.Path {
	d.revision++
	d.tree.AdvanceRev()
	pol := d.cfg.Flatten
	if pol.Interval <= 0 || d.revision%int64(pol.Interval) != 0 {
		return nil
	}
	cutoff := d.tree.Rev() - 1 - pol.ColdRevisions
	cold := d.tree.ColdestSubtree(cutoff, pol.MinNodes, false)
	if cold == nil {
		return nil
	}
	if err := d.tree.Flatten(cold); err != nil {
		return nil
	}
	d.runGap = -1
	return cold
}

// Revision returns the current revision number.
func (d *Document) Revision() int64 { return d.revision }

// ErrMintRaced reports a FlattenOp whose afterSeq precondition failed: a
// local edit was minted between the caller's readiness check and the
// flatten mint, so executing the flatten now would give it a sequence
// number out of order with its causal stamp. The caller retries once the
// racing edit has been stamped.
var ErrMintRaced = errors.New("core: local edit raced the flatten mint")

// FlattenOp executes a committed flatten as a local operation: the subtree
// at the structural path (empty = whole document) is flattened and the
// operation to propagate is returned. afterSeq is the local sequence
// number the caller expects the replica to be at; a mismatch (a local
// edit raced in) fails with ErrMintRaced before anything is modified —
// the check and the mint are one atomic step from the caller's locked
// view. Only the coordinator of a successful flatten commitment may call
// this — the protocol establishes that no replica holds a concurrent
// edit of the region — and the returned operation must be broadcast like
// any insert or delete, so causal delivery orders it before every
// post-flatten edit at every replica.
func (d *Document) FlattenOp(path ident.Path, afterSeq uint64) (Op, error) {
	if err := path.ValidateStructural(); err != nil {
		return Op{}, fmt.Errorf("core: flatten path: %w", err)
	}
	if d.seq != afterSeq {
		return Op{}, fmt.Errorf("core: flatten mint at seq %d, expected %d: %w", d.seq, afterSeq, ErrMintRaced)
	}
	d.seq++
	op := Op{Kind: OpFlatten, ID: ident.Pack(path), Site: d.cfg.Site, Seq: d.seq}
	if err := d.applyAt(op, path); err != nil {
		return Op{}, err
	}
	return op, nil
}

// FlattenSubtree flattens the subtree at the given structural path,
// discarding tombstones and identifier metadata in the region. Callers are
// responsible for coordination (see internal/transport/flatten.go);
// concurrent edits to a flattened region would diverge.
func (d *Document) FlattenSubtree(path ident.Path) error {
	d.runGap = -1
	if err := d.tree.Flatten(path); err != nil {
		return fmt.Errorf("core: flatten subtree: %w", err)
	}
	return nil
}

// FlattenAll compacts the whole document to a plain array: the paper's
// zero-overhead best case.
func (d *Document) FlattenAll() error {
	d.runGap = -1
	if err := d.tree.FlattenAll(); err != nil {
		return fmt.Errorf("core: flatten all: %w", err)
	}
	return nil
}

// ColdestSubtree exposes the flatten heuristic's candidate selection: the
// largest subtree not edited for `revisions` revisions with at least
// minNodes nodes, or nil. A candidate is proposed to every replica, so it
// must exist at each: under UDIS, where deletes discard, that takes a live
// atom inside it.
func (d *Document) ColdestSubtree(revisions int64, minNodes int) ident.Path {
	return d.tree.ColdestSubtree(d.tree.Rev()-revisions, minNodes, d.cfg.Mode == ident.UDIS)
}

// Stats measures the replica's overheads under its cost model.
func (d *Document) Stats() Stats {
	ts := d.tree.Stats(d.cfg.Cost)
	return Stats{
		Tree:       ts,
		Mode:       d.cfg.Mode,
		Strategy:   d.strategy.Name(),
		OpsApplied: d.opsApplied,
		NetBits:    d.netBits,
		Height:     d.tree.Height(),
	}
}

// Check verifies the underlying tree's structural invariants (tests).
func (d *Document) Check() error { return d.tree.Check() }

// Tree exposes the underlying document tree to sibling internal packages
// (storage serialisation, benches). External users go through the public
// treedoc package, which does not expose it.
func (d *Document) Tree() *doctree.Tree { return d.tree }

// Stats bundles a replica's measurements (Section 5's cost accounting).
type Stats struct {
	Tree       doctree.Stats
	Mode       ident.Mode
	Strategy   string
	OpsApplied uint64
	NetBits    uint64 // total network cost of all operations seen
	Height     int
}
