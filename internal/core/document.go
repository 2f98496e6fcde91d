package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

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

	// locks are the flatten rounds pending here: one per intent applied
	// whose OpFlatten or abort has not been. A local edit touching a region
	// one names fails with ErrRegionLocked. Apply is never blocked: a remote
	// edit of the region was made before its site applied the intent, and
	// the round's author waits for it.
	locks map[lockKey]intent
}

// lockKey names a flatten round as its operations do: author and region.
type lockKey struct {
	site ident.SiteID
	id   ident.Packed
}

// intent is a pending round's intent: its sequence number at the author
// and the region's elements.
type intent struct {
	seq  uint64
	path ident.Path
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
	return &Document{cfg: cfg, tree: doctree.New(), strategy: cfg.Strategy, version: vclock.New(), runGap: -1}, nil
}

// Restore rebuilds a replica from a deserialised tree and its persistent
// allocation state (the per-site operation sequence and UDIS counter, which
// must survive restarts so the site never re-mints identifiers). version is
// the applied version vector the snapshot was taken at; nil derives the
// pre-versioned form {site: seq}, which is correct for single-site
// snapshots and a safe under-approximation otherwise. intents are the
// flatten rounds pending in the snapshot (see Intents).
func Restore(cfg Config, tree *doctree.Tree, seq uint64, counter uint32, version vclock.VC, intents []Op) (*Document, error) {
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
	d.setIntents(intents)
	return d, nil
}

// Version returns a copy of the applied version vector.
func (d *Document) Version() vclock.VC { return d.version.Clone() }

// ErrRegionLocked reports a local edit blocked by a pending flatten round on
// its region: a replica that applied the round's intent must not edit the
// subtree until the round's OpFlatten or abort is applied
// (internal/transport/flatten.go). Callers retry after the round decides.
var ErrRegionLocked = errors.New("core: region locked by pending flatten round")

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
// a scan of the adopted tree's disambiguators. The snapshot's pending
// flatten rounds replace the replica's.
func (d *Document) InstallSnapshot(tree *doctree.Tree, version vclock.VC, origin ident.SiteID, originSeq uint64, originCounter uint32, intents []Op) error {
	if !version.Dominates(d.version) {
		return ErrStaleSnapshot
	}
	d.runGap = -1
	d.tree = tree
	d.version = version.Clone()
	d.setIntents(intents)
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

// Content returns a copy of the document's atoms in order.
func (d *Document) Content() []string { return d.tree.Content() }

// ContentString returns the document joined with newlines, the natural
// rendering for line- and paragraph-granularity atoms.
func (d *Document) ContentString() string { return d.tree.Text(0, d.tree.Len(), "\n") }

// Text returns the atoms of the index range [from, to), which must lie in
// the document, joined by sep, in one tree walk, O(height + to - from).
func (d *Document) Text(from, to int, sep string) string { return d.tree.Text(from, to, sep) }

// AtomAt returns a copy of the atom at index i.
func (d *Document) AtomAt(i int) (string, error) { return d.tree.AtomAt(i) }

// VisitRange streams a copy of each atom of the index range [from, to) in
// document order in one tree walk, O(height + to - from); fn returning
// false stops the iteration early.
func (d *Document) VisitRange(from, to int, fn func(atom string) bool) error {
	return d.tree.VisitBytes(from, to, func(a []byte) bool { return fn(string(a)) })
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
// the operation to propagate, or ErrRegionLocked if a locked region meets
// the gap.
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
	if d.locked(p, f) {
		return Op{}, ErrRegionLocked
	}
	if err := d.admit(1); err != nil {
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
	op := Op{Kind: OpInsert, ID: k, Atom: atom, Site: d.cfg.Site, Seq: d.seq + 1}
	s, err := d.tree.InsertFrom(from, id, atom)
	if err != nil {
		return op, s, err
	}
	d.seq++
	d.noteApplied(op, id)
	return op, s, nil
}

// admit refuses, before anything changes, a local insert of n atoms the
// tree could not take: this site new to a full site table, or more
// records than the slabs have left for n identifiers as deep as a run
// below a balanced growth under the deepest node, with the growth's
// subtree (each identifier's walk may build two records a level). A
// refused edit mints no sequence number, reserves nothing and applies no
// part of a run.
func (d *Document) admit(n int) error {
	h := d.tree.Height()
	k := growLevels(h)
	return d.tree.Admits(d.cfg.Site, 2*n*(h+k+bits.Len(uint(n))+2)+1<<k)
}

// primeRun records the neighbours of gap g for a continuing insert run:
// the just-inserted identifier on the left, f on the right, and where they
// lie. The identifier lies in idBuf, which the cache takes whole by
// trading buffers (the one it gives back held the previous left
// neighbour, now spent); f is scratch-backed and copied. noteApplied
// invalidates the cache on every mutation, so it only survives between
// back-to-back local inserts, which keep its slots valid.
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
// minimal subtree (Section 4.1's revision-grouping variant). Like
// InsertAt, it fails with ErrRegionLocked if a locked region meets the gap.
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
	if d.locked(p, f) {
		return nil, ErrRegionLocked
	}
	if err := d.admit(len(atoms)); err != nil {
		return nil, err
	}
	var ids []ident.Packed
	ids, d.idBuf = d.strategy.NewRun(d.tree, d.idBuf, p, f, d.nextDis(), len(atoms))
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
			if d.cfg.Mode != ident.UDIS && d.tree.Exists(id) {
				// A used identifier spoils the precomputed packing: its
				// substitute may sort past the run's next identifiers, so the
				// rest are allocated individually.
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

// Splice deletes delCount atoms at off, then inserts atoms there, as one
// local edit (0 ≤ off ≤ off+delCount ≤ Len): a region lock or a tree
// without room for the inserts fails it before the first delete, so it is
// never left half applied. It returns the deletes' operations, then the
// inserts'.
func (d *Document) Splice(off, delCount int, atoms []string) ([]Op, error) {
	if len(d.locks) > 0 {
		locked, err := d.spliceLocked(off, delCount, len(atoms) > 0)
		if err != nil {
			return nil, err
		}
		if locked {
			return nil, ErrRegionLocked
		}
	}
	if len(atoms) > 0 {
		if err := d.admit(len(atoms)); err != nil {
			return nil, err
		}
	}
	ops := make([]Op, 0, delCount+len(atoms))
	for range delCount {
		op, err := d.DeleteAt(off)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	ins, err := d.InsertRunAt(off, atoms)
	if err != nil {
		return nil, err
	}
	return append(ops, ins...), nil
}

// spliceLocked reports whether a splice touches a locked region. With an
// insert it tests the gap the deletes leave, between the atoms at off-1
// and off+delCount: a region is an interval of identifiers, so one holding
// a deleted atom meets that gap too. A pure delete tests each atom.
func (d *Document) spliceLocked(off, delCount int, insert bool) (bool, error) {
	if !insert {
		for i := off; i < off+delCount; i++ {
			id, err := d.tree.IDAt(i)
			if err != nil {
				return false, err
			}
			if d.locked(id, id) {
				return true, nil
			}
		}
		return false, nil
	}
	var p, f ident.Path
	var err error
	if off > 0 {
		if p, err = d.tree.IDAt(off - 1); err != nil {
			return false, err
		}
	}
	if end := off + delCount; end < d.tree.Len() {
		if f, err = d.tree.IDAt(end); err != nil {
			return false, err
		}
	}
	return d.locked(p, f), nil
}

// Intents returns the flatten rounds pending at the replica as their intent
// operations, by author, then sequence number: what a snapshot carries and
// a member acknowledges.
func (d *Document) Intents() []Op {
	ops := make([]Op, 0, len(d.locks))
	for k, l := range d.locks {
		ops = append(ops, Op{Kind: OpIntent, ID: k.id, Site: k.site, Seq: l.seq})
	}
	slices.SortFunc(ops, func(a, b Op) int { return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Seq, b.Seq)) })
	return ops
}

// setIntents makes intents the pending rounds.
func (d *Document) setIntents(intents []Op) {
	d.locks = nil
	for _, op := range intents {
		d.lock(op, op.ID.AppendPath(nil))
	}
}

// lock opens the round of an intent whose region's elements are path.
func (d *Document) lock(op Op, path ident.Path) {
	if d.locks == nil {
		d.locks = make(map[lockKey]intent)
	}
	d.locks[lockKey{op.Site, op.ID}] = intent{op.Seq, path.Clone()}
}

// locked reports whether a locked region meets the identifier range
// [lo, hi]: an atom's is [id, id], an insert gap's runs between its
// neighbours (nil for a document end), which a region touches when it
// holds either or lies strictly between them.
func (d *Document) locked(lo, hi ident.Path) bool {
	for _, l := range d.locks {
		if (lo == nil || ident.RegionCompare(lo, l.path) <= 0) && (hi == nil || ident.RegionCompare(hi, l.path) >= 0) {
			return true
		}
	}
	return false
}

// DeleteAt deletes the atom at index i as a local edit and returns the
// operation to propagate, or ErrRegionLocked if the atom is in a locked
// region.
//
//treedoc:noalloc
func (d *Document) DeleteAt(i int) (Op, error) {
	if len(d.locks) > 0 {
		// Only a held lock costs a second descent: the atom's identifier,
		// read into scratchF, is tested before anything is deleted.
		id, _, err := d.tree.AppendIDAt(d.scratchF[:0], i)
		if err != nil {
			return Op{}, fmt.Errorf("core: delete at %d: %w", i, err)
		}
		if d.scratchF = id; d.locked(id, id) {
			return Op{}, ErrRegionLocked
		}
	}
	// One fused descent locates the atom, emits its identifier into the
	// scratch buffer, and deletes it; only the packed form that escapes into
	// the op touches the heap. Going through Apply instead would re-walk the
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
// (Section 2.2). Its identifier's encoding was checked where it was made;
// Apply checks the operation's shape, then expands the identifier into
// the document's scratch — where a held identifier becomes a walked one.
func (d *Document) Apply(op Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	d.idBuf = op.ID.AppendPath(d.idBuf[:0])
	return d.applyAt(op, d.idBuf)
}

// applyAt executes op, whose identifier's elements are id — unpacked by
// Apply, or the ones a local edit just built.
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
		delete(d.locks, lockKey{op.Site, op.ID})
	case OpIntent:
		d.lock(op, id)
	case OpAbort:
		delete(d.locks, lockKey{op.Site, op.ID})
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
// evaluation; the distributed form runs the same flatten as the round of
// internal/transport/flatten.go.
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
// mint, so the operation's sequence number would be out of order with its
// causal stamp. The caller retries once the racing edit has been stamped.
var ErrMintRaced = errors.New("core: local edit raced the flatten mint")

// FlattenOp mints one of a flatten round's operations at the structural
// path (empty = whole document) as a local edit, applies it and returns it
// to broadcast like any insert or delete: kind is OpIntent, OpFlatten or
// OpAbort. afterSeq is the local sequence number the caller expects the
// replica to be at; a mismatch (a local edit raced in) fails with
// ErrMintRaced, and an OpFlatten of a region that may not exist at every
// replica fails too, both before anything is modified: a region that is
// gone, or under UDIS one that holds no live atom, which other replicas may
// have pruned where this one's reserved slots hold it. Only a round's
// author mints its operations, and its OpFlatten only once every member
// has applied the intent and the author holds every edit of the region
// made before it (internal/transport/flatten.go).
func (d *Document) FlattenOp(kind OpKind, path ident.Path, afterSeq uint64) (Op, error) {
	if kind < OpFlatten || kind > OpAbort {
		return Op{}, fmt.Errorf("core: %s is not a flatten round's operation", kind)
	}
	if err := path.ValidateStructural(); err != nil {
		return Op{}, fmt.Errorf("core: %s path: %w", kind, err)
	}
	if d.seq != afterSeq {
		return Op{}, fmt.Errorf("core: flatten mint at seq %d, expected %d: %w", d.seq, afterSeq, ErrMintRaced)
	}
	if kind == OpFlatten && d.cfg.Mode == ident.UDIS && len(path) > 0 && !d.holdsLive(path) {
		return Op{}, fmt.Errorf("core: flatten at %v: the region holds no live atom", path)
	}
	op := Op{Kind: kind, ID: ident.Pack(path), Site: d.cfg.Site, Seq: d.seq + 1}
	if err := d.applyAt(op, path); err != nil {
		return Op{}, err
	}
	return op, nil
}

// holdsLive reports whether a live atom lies in the subtree at the
// structural path. Atoms lie in identifier order, so a binary search finds
// the first one not before the region.
func (d *Document) holdsLive(path ident.Path) bool {
	i := sort.Search(d.tree.Len(), func(i int) bool {
		id, err := d.tree.IDAt(i)
		return err != nil || ident.RegionCompare(id, path) >= 0
	})
	id, err := d.tree.IDAt(i)
	return err == nil && ident.RegionCompare(id, path) == 0
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
