package treedoc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Mode selects the disambiguator scheme (Section 3.3 of the paper).
type Mode = ident.Mode

// Disambiguator schemes.
const (
	// SDIS uses bare site identifiers; deletes leave tombstones until a
	// flatten collects them.
	SDIS = ident.SDIS
	// UDIS uses (counter, site) pairs; deletes discard immediately.
	UDIS = ident.UDIS
)

// Op is a replicable edit operation. Ops serialise with MarshalBinary /
// UnmarshalBinary for transport. Op.ID is the position identifier in its
// packed form, a Packed.
type Op = core.Op

// Packed is a position identifier as an operation holds it: an opaque
// value of exactly the bytes the identifier takes on the wire, one bit per
// tree level. Two are the same identifier when they are ==; AppendPath
// expands one into the elements of a Path, Len is its depth, String the
// paper's notation. Only the library makes one, so it is well formed;
// Doc.Apply checks an operation's is non-zero and of its kind's shape.
type Packed = ident.Packed

// Operation kinds: the two edits, and a flatten round's three operations
// (see Engine.ProposeFlatten).
const (
	OpInsert  = core.OpInsert
	OpDelete  = core.OpDelete
	OpFlatten = core.OpFlatten
	OpIntent  = core.OpIntent
	OpAbort   = core.OpAbort
)

// Stats bundles a replica's overhead measurements under the paper's cost
// models (Section 5).
type Stats = core.Stats

// SiteID identifies a replica (48 bits, non-zero).
type SiteID = ident.SiteID

// Path is a position in the Treedoc identifier tree as a sequence of
// elements: an atom identifier (an operation's Packed, expanded) or a
// structural subtree path (as used by flatten — nil or empty means the
// whole document). Values come from the library (Doc.ColdestSubtree, lock
// callbacks); external code treats them as opaque.
type Path = ident.Path

// Version is an applied version vector: per site, the highest operation
// sequence number whose effects are in a replica (or a snapshot of one).
type Version = vclock.VC

// Option configures a Doc.
type Option func(*config) error

type config struct {
	core core.Config
}

// WithSite sets the replica's unique site identifier (required unless the
// Doc is created by a Cluster).
func WithSite(site SiteID) Option {
	return func(c *config) error {
		if site == 0 || site > ident.MaxSiteID {
			return fmt.Errorf("treedoc: site must be in [1, 2^48)")
		}
		c.core.Site = site
		return nil
	}
}

// WithMode selects SDIS (default) or UDIS.
func WithMode(m Mode) Option {
	return func(c *config) error {
		switch m {
		case SDIS, UDIS:
			c.core.Mode = m
			return nil
		default:
			return fmt.Errorf("treedoc: invalid mode %v", m)
		}
	}
}

// WithNaiveAllocation selects the paper's Algorithm 1 without balancing,
// mainly useful for comparison; the default is balanced allocation
// (Section 4.1).
func WithNaiveAllocation() Option {
	return func(c *config) error {
		c.core.Strategy = core.Naive{}
		return nil
	}
}

// WithBalancedAllocation selects the balancing strategy (the default).
func WithBalancedAllocation() Option {
	return func(c *config) error {
		c.core.Strategy = core.Balanced{}
		return nil
	}
}

// WithFlattenEvery enables the local flatten heuristic: every interval
// revisions (see EndRevision), the largest subtree quiet for coldRevisions
// revisions is compacted. Use only on single-replica documents or under
// external coordination; Cluster coordinates flatten itself.
func WithFlattenEvery(interval int, coldRevisions int) Option {
	return func(c *config) error {
		if interval < 0 || coldRevisions < 0 {
			return fmt.Errorf("treedoc: negative flatten policy")
		}
		c.core.Flatten = core.FlattenPolicy{Interval: interval, ColdRevisions: int64(coldRevisions), MinNodes: 2}
		return nil
	}
}

// WithCompactSiteIDs accounts overheads with 2-byte site identifiers (the
// paper's known-membership variant, Section 3.3.2) instead of 6-byte ones.
func WithCompactSiteIDs() Option {
	return func(c *config) error {
		c.core.Cost = ident.CompactCost()
		return nil
	}
}

// Doc is one replica of a Treedoc document. All methods are safe for
// concurrent use by multiple goroutines.
type Doc struct {
	mu  sync.Mutex
	doc *core.Document // guarded by mu
}

// New creates an empty replica.
func New(opts ...Option) (*Doc, error) {
	var c config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	d, err := core.NewDocument(c.core)
	if err != nil {
		return nil, fmt.Errorf("treedoc: new: %w", err)
	}
	return &Doc{doc: d}, nil
}

// Site returns the replica's site identifier.
func (d *Doc) Site() SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Site()
}

// Len returns the number of atoms.
func (d *Doc) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Len()
}

// Content returns a copy of the atoms in document order.
func (d *Doc) Content() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Content()
}

// ContentString joins the atoms with newlines.
func (d *Doc) ContentString() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.ContentString()
}

// AtomAt returns a copy of the atom at index i.
func (d *Doc) AtomAt(i int) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, err := d.doc.AtomAt(i)
	if err != nil {
		return "", fmt.Errorf("treedoc: atom at %d: %w", i, err)
	}
	return a, nil
}

// VisitRange calls fn with a copy of each atom of the index range
// [from, to) in document order, under one lock and one tree walk —
// O(height + to - from), where per-index AtomAt calls would descend from
// the root each time.
// Iteration stops early if fn returns false. fn must not call back into
// the Doc.
func (d *Doc) VisitRange(from, to int, fn func(atom string) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.doc.VisitRange(from, to, fn); err != nil {
		return fmt.Errorf("treedoc: visit range [%d,%d): %w", from, to, err)
	}
	return nil
}

// InsertAt inserts atom at index i (0 ≤ i ≤ Len) and returns the operation
// to broadcast to other replicas. While a pending flatten round has the
// target region locked it fails with an error wrapping ErrRegionLocked;
// retry once the round decides.
func (d *Doc) InsertAt(i int, atom string) (Op, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.doc.InsertAt(i, atom)
	if err != nil {
		return Op{}, fmt.Errorf("treedoc: insert at %d: %w", i, err)
	}
	return op, nil
}

// Append inserts atom at the end of the document.
func (d *Doc) Append(atom string) (Op, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.doc.Len()
	op, err := d.doc.InsertAt(n, atom)
	if err != nil {
		return Op{}, fmt.Errorf("treedoc: insert at %d: %w", n, err)
	}
	return op, nil
}

// InsertRunAt inserts consecutive atoms starting at index i, packing them
// into a minimal subtree under balanced allocation (Section 4.1). One
// operation per atom is returned. Like InsertAt, it fails with
// ErrRegionLocked while a flatten round has the target gap locked.
func (d *Doc) InsertRunAt(i int, atoms []string) ([]Op, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ops, err := d.doc.InsertRunAt(i, atoms)
	if err != nil {
		return nil, fmt.Errorf("treedoc: insert at %d: %w", i, err)
	}
	return ops, nil
}

// DeleteAt removes the atom at index i and returns the operation to
// broadcast. Like InsertAt, it fails with ErrRegionLocked while a flatten
// round has the atom's region locked.
func (d *Doc) DeleteAt(i int) (Op, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.doc.DeleteAt(i)
	if err != nil {
		return Op{}, fmt.Errorf("treedoc: delete at %d: %w", i, err)
	}
	return op, nil
}

// Apply replays a remote operation. Operations must be delivered in
// happened-before order (each replica's operations in sequence, and an
// atom's insert before any of its deletes); under that contract concurrent
// operations commute and replicas converge.
func (d *Doc) Apply(op Op) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.doc.Apply(op); err != nil {
		return fmt.Errorf("treedoc: apply: %w", err)
	}
	return nil
}

// ApplyAll replays a batch of operations in order (see ApplyBatch).
func (d *Doc) ApplyAll(ops []Op) error {
	_, err := d.ApplyBatch(ops)
	return err
}

// ApplyBatch replays remote operations in order under one lock, returning
// how many applied before the first failure (len(ops) and nil on success).
// It is the replication engine's one apply path: one lock acquisition per
// delivered frame, and the document's walk caches stay hot across the
// whole batch instead of being re-primed per call.
func (d *Doc) ApplyBatch(ops []Op) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, op := range ops {
		if err := d.doc.Apply(op); err != nil {
			return i, fmt.Errorf("treedoc: op %d: %w", i, err)
		}
	}
	return len(ops), nil
}

// EndRevision marks the end of an edit session, driving the flatten
// heuristic configured with WithFlattenEvery.
func (d *Doc) EndRevision() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.doc.EndRevision()
}

// Flatten compacts the whole document into a plain array with zero
// metadata (the paper's best case). It must not run concurrently with
// remote edits: run a flatten round instead (see Cluster) or use it on
// single-replica documents.
func (d *Doc) Flatten() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.doc.FlattenAll(); err != nil {
		return fmt.Errorf("treedoc: flatten: %w", err)
	}
	return nil
}

// Stats measures the replica's overheads.
func (d *Doc) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Stats()
}

// ErrRegionLocked is returned for local edits blocked by a pending flatten
// round on their region — by a Cluster replica and by a Doc or TextBuffer
// wrapped in a replication Engine alike. Retry after the round decides
// (normally within one round trip; an author that cannot reach a member
// holds the region until its deadline aborts).
var ErrRegionLocked = core.ErrRegionLocked

// FlattenOp mints one of a flatten round's operations — its OpIntent, its
// OpFlatten or its OpAbort — as a local operation and
// returns it to broadcast, exactly as InsertAt does for inserts. Only the
// round's author mints them (the replication engine does; see
// Engine.ProposeFlatten), because an OpFlatten issued while a member holds
// an edit of the region the author lacks would diverge. afterSeq is the
// local sequence number (Version()[Site()]) the caller verified quiescence
// at; a concurrent local edit since then fails the mint with
// core.ErrMintRaced, leaving the replica untouched.
func (d *Doc) FlattenOp(kind core.OpKind, path Path, afterSeq uint64) (Op, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.doc.FlattenOp(kind, path, afterSeq)
	if err != nil {
		return Op{}, fmt.Errorf("treedoc: flatten op: %w", err)
	}
	return op, nil
}

// Intents returns the flatten rounds pending at the replica, as their
// intent operations: each names a region the replica refuses local edits
// of until the round's OpFlatten or abort is applied.
func (d *Doc) Intents() []Op {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Intents()
}

// ColdestSubtree returns the structural path of the best flatten
// candidate — the largest tombstone-heavy subtree quiet for the given
// number of revisions (see EndRevision) — or nil when nothing qualifies.
// The replication engine uses it to pick cold-subtree flatten proposals.
func (d *Doc) ColdestSubtree(revisions int64, minNodes int) Path {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.ColdestSubtree(revisions, minNodes)
}

// Check verifies internal invariants; it is used by tests and returns nil
// on healthy documents.
func (d *Doc) Check() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.doc.Check(); err != nil {
		return fmt.Errorf("treedoc: check: %w", err)
	}
	return nil
}

// snapMagic opens the snapshot format: magic, site, seq, counter, mode,
// the applied version vector — so a snapshot says exactly which operations
// it stands in for — the pending flatten rounds, then the tree bytes.
// TDS2, which had no rounds, is refused by name.
const snapMagic, oldSnapMagic = "TDS3", "TDS2"

// snapshot is a decoded replica snapshot.
type snapshot struct {
	site    SiteID
	seq     uint64
	counter uint32
	mode    Mode
	version vclock.VC
	intents []Op
	tree    *doctree.Tree
}

// MarshalBinary snapshots the replica — document tree, persistent
// allocation state, and applied version vector — using the heap-array
// on-disk format of Section 5.2 for the tree.
func (d *Doc) MarshalBinary() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.marshalLocked(), nil
}

//treedoc:holds mu
func (d *Doc) marshalLocked() []byte {
	buf := append(make([]byte, 0, 64), snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(d.doc.Site()))
	buf = binary.AppendUvarint(buf, d.doc.Seq())
	buf = binary.AppendUvarint(buf, uint64(d.doc.Counter()))
	buf = append(buf, byte(d.doc.Config().Mode))
	buf = d.doc.Version().AppendBinary(buf)
	intents := d.doc.Intents()
	buf = binary.AppendUvarint(buf, uint64(len(intents)))
	for _, op := range intents {
		buf = op.AppendBinary(buf)
	}
	// The tree goes behind these fields in storage's pooled scratch and comes
	// back as one exact-size slice: no append-growth garbage on the engine's
	// actor, no slack capacity retained with a barrier snapshot.
	return storage.EncodeAfter(buf, d.doc.Tree())
}

// Snapshot captures the replica state and the version vector describing
// it in one atomic step: the returned version covers exactly the
// operations whose effects are in the returned bytes. The replication
// engine uses it for compaction barriers and snapshot catch-up.
func (d *Doc) Snapshot() ([]byte, Version, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.marshalLocked(), d.doc.Version(), nil
}

// Version returns a copy of the applied version vector: per site, the
// highest operation sequence number reflected in the document.
func (d *Doc) Version() Version {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doc.Version()
}

// InstallSnapshot replaces the replica's state with a snapshot whose
// version vector dominates the replica's own — snapshot-based catch-up
// for a joiner too far behind to replay the operation log. The replica
// keeps its site identity; its sequence and disambiguator counters
// advance past anything the snapshot contains, so it never re-mints an
// identifier. A snapshot that does not cover the replica's applied state
// is rejected with an error wrapping core.ErrStaleSnapshot, leaving the
// replica untouched. The installed version vector is returned.
func (d *Doc) InstallSnapshot(data []byte) (Version, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if snap.mode != d.doc.Config().Mode {
		return nil, fmt.Errorf("treedoc: snapshot mode %v does not match replica mode %v", snap.mode, d.doc.Config().Mode)
	}
	if err := d.doc.InstallSnapshot(snap.tree, snap.version, snap.site, snap.seq, snap.counter, snap.intents); err != nil {
		return nil, fmt.Errorf("treedoc: %w", err)
	}
	return d.doc.Version(), nil
}

// decodeSnapshot parses and validates a snapshot.
func decodeSnapshot(data []byte) (snapshot, error) {
	var snap snapshot
	if len(data) >= len(snapMagic) && string(data[:len(oldSnapMagic)]) == oldSnapMagic {
		return snap, fmt.Errorf("treedoc: snapshot header %q is not format %s", oldSnapMagic, snapMagic)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return snap, fmt.Errorf("treedoc: bad snapshot header")
	}
	off := len(snapMagic)
	site, n := binary.Uvarint(data[off:])
	if n <= 0 || site == 0 || SiteID(site) > ident.MaxSiteID {
		return snap, fmt.Errorf("treedoc: bad snapshot site")
	}
	off += n
	seq, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return snap, fmt.Errorf("treedoc: truncated snapshot seq")
	}
	off += n
	counter, n := binary.Uvarint(data[off:])
	if n <= 0 || counter > 1<<32-1 {
		return snap, fmt.Errorf("treedoc: truncated snapshot counter")
	}
	off += n
	if off >= len(data) {
		return snap, fmt.Errorf("treedoc: truncated snapshot mode")
	}
	mode := Mode(data[off])
	off++
	version, k, err := vclock.DecodeBinary(data[off:], -1)
	if err != nil {
		return snap, fmt.Errorf("treedoc: snapshot version: %w", err)
	}
	off += k
	count, n := binary.Uvarint(data[off:])
	if n <= 0 || count > uint64(len(data)-off) {
		return snap, fmt.Errorf("treedoc: bad snapshot round count")
	}
	off += n
	intents := make([]Op, count)
	for i := range intents {
		op, n, err := core.DecodeOp(data[off:])
		if err == nil && (op.Kind != OpIntent || op.Site == 0) {
			err = fmt.Errorf("%v is no intent", op)
		}
		if err != nil {
			return snap, fmt.Errorf("treedoc: snapshot round: %w", err)
		}
		intents[i], off = op, off+n
	}
	tree, err := storage.Decode(data[off:])
	if err != nil {
		return snap, fmt.Errorf("treedoc: snapshot tree: %w", err)
	}
	snap = snapshot{site: SiteID(site), seq: seq, counter: uint32(counter), mode: mode, version: version, intents: intents, tree: tree}
	return snap, nil
}

// Open restores a replica from a snapshot. Options may override the
// allocation strategy or cost model but not the site or mode, which are
// part of the snapshot.
func Open(data []byte, opts ...Option) (*Doc, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	var c config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	c.core.Site = snap.site
	c.core.Mode = snap.mode
	doc, err := core.Restore(c.core, snap.tree, snap.seq, snap.counter, snap.version, snap.intents)
	if err != nil {
		return nil, fmt.Errorf("treedoc: open snapshot: %w", err)
	}
	return &Doc{doc: doc}, nil
}
