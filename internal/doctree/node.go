// Package doctree implements the extended binary tree that backs a Treedoc
// document (Section 3 of the ICDCS 2009 paper): major nodes whose contents
// are disambiguated mini-nodes, with children hanging both off major nodes
// (plain path elements) and off individual mini-nodes (disambiguated path
// elements).
//
// The tree is simultaneously the identifier space and the storage layer. It
// supports the paper's mixed representation (Section 4.2): quiescent
// subtrees may be held as flat atom arrays with zero per-atom metadata and
// are exploded back into canonical tree form lazily when a path is applied
// to them.
//
// doctree is a single-replica data structure with no concurrency control of
// its own; internal/core layers CRDT operation semantics on top, and the
// public treedoc package adds locking.
package doctree

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/treedoc/treedoc/internal/ident"
)

// nodeH and miniH are handles into the tree's node and mini slabs; 0 is nil.
type (
	nodeH uint32
	miniH uint32
)

// rootH is the root's handle: the first record a tree allocates.
const rootH nodeH = 1

// node is a major node: one position of the binary identifier tree. Its
// contents are mini-nodes chained in disambiguator order from first.
// Children reached by plain path elements hang off the node itself (left,
// right); children reached by disambiguated elements hang off the
// individual mini-nodes.
//
// A node flagged flat is a flattened region (Section 4.2): it stores its
// whole subtree's live atoms as a plain array with no metadata
// (Tree.flats), and has no minis or children until a path walk explodes it.
//
// The record is the paper's 4-byte-pointer node model made literal: 36
// bytes, every link a handle, no Go pointer — the collector never scans a
// node chunk, and nothing reachable from a node keeps a detached subtree
// alive. The first 20 bytes hold what the two hot per-edit loops touch: the
// count-guided descent (kids, first, live) and the counter climb (parent,
// live). The climb writes emptyN only when its delta is non-zero. A
// subtree's node and tombstone counts are not kept: the rare cold-subtree
// scan sums them as it walks, as it does lastMod.
type node struct {
	parent nodeH    // node containing the slot we hang from; 0 at the root
	kids   [2]nodeH // major child slots: left, right
	first  miniH    // head of the mini chain, sorted by disambiguator
	live   uint32   // live atoms in this subtree, including flat content

	emptyN  uint32 // empty (reusable-slot) nodes in this subtree
	lastMod uint32 // latest revision that edited at this node (see bubble)
	pmini   miniH  // mini of parent we hang from; 0 = parent's major slot
	bit     uint8  // which side of the parent slot
	flat    bool   // a flattened region, its atoms in Tree.flats
}

func (n *node) freeLink() *uint32 { return (*uint32)(&n.parent) }

// mini is a mini-node: one atom slot inside a major node, identified by its
// disambiguator (Section 3.1). A dead mini is a tombstone (SDIS) or an
// awaiting-discard placeholder (UDIS); its atom is gone but the identifier
// remains allocated. The atom is a handle into Tree.atoms, 0 for a dead
// mini, and the disambiguator is stored packed (a 48-bit site, see
// ident.MaxSiteID), so the record is 28 bytes with no Go pointer; a mini
// does not name its owner — every walk that reaches one knows the node it
// came through, and carries the pair as a slot.
type mini struct {
	atom    uint32   // handle into Tree.atoms; 0 = dead
	next    miniH    // next mini of the node, in disambiguator order
	kids    [2]nodeH // the mini's own child slots: left, right
	counter uint32
	siteLo  uint32
	siteHi  uint16
}

func (m *mini) freeLink() *uint32 { return (*uint32)(&m.next) }

func (m *mini) dis() ident.Dis {
	return ident.Dis{Counter: m.counter, Site: ident.SiteID(m.siteHi)<<32 | ident.SiteID(m.siteLo)}
}

// Tree is a Treedoc document tree. The zero value is not usable; call New.
type Tree struct {
	// Every node, mini-node and live atom lives in these slabs and is named
	// by handle. A flatten returns the region's records to the free lists;
	// a whole-document flatten starts the slabs afresh.
	nodes slab[node, *node]
	minis slab[mini, *mini]
	atoms atomStore
	// flats holds the atom arrays of flattened regions, keyed by the
	// region's node; only a node flagged flat has an entry.
	flats map[nodeH][]string
	limit uint32 // records per slab; maxRecords outside tests

	height int    // max depth of any node (root = 0)
	rev    uint32 // current revision stamp for lastMod bookkeeping

	// Walk cache: the identifier and slot of the last successful
	// root-to-leaf walk. Consecutive operations on nearby identifiers (an
	// insert run, an insert followed by its delete) share long path
	// prefixes, so the next walk resumes from the deepest shared slot
	// instead of descending from the root. Any structural removal (prune,
	// flatten) drops the cache; see cacheDrop call sites.
	ckID ident.Path
	ck   slot // ck.mini == 0: no cached walk
}

// New returns an empty document tree.
func New() *Tree {
	t := &Tree{limit: maxRecords, flats: map[nodeH][]string{}}
	t.nodes.alloc() // rootH
	return t
}

func (t *Tree) node(h nodeH) *node { return t.nodes.at(uint32(h)) }
func (t *Tree) mini(h miniH) *mini { return t.minis.at(uint32(h)) }

// nodeDir is the node slab's chunk directory held in a local: the climbs
// resolve one handle per level, and a local keeps the directory in
// registers where t.node would reload it from the tree after every store.
type nodeDir []*[chunkLen]node

func (d nodeDir) at(h nodeH) *node { return &d[h>>chunkShift][h&chunkMask] }

// room reports ErrFull unless the slabs can hand out that many more nodes
// and minis. Every operation that allocates checks once, up front, with an
// upper bound of what it may need, so the allocation paths cannot fail.
func (t *Tree) room(nodes, minis int) error {
	if uint64(t.nodes.used())+uint64(nodes) > uint64(t.limit) || uint64(t.minis.used())+uint64(minis) > uint64(t.limit) {
		return ErrFull
	}
	return nil
}

// newNode allocates a node hanging from slot s on side bit. It does not
// link it into the slot.
func (t *Tree) newNode(s slot, bit uint8) nodeH {
	h := nodeH(t.nodes.alloc())
	n := t.node(h)
	n.parent, n.pmini, n.bit = s.node, s.mini, bit
	return h
}

// insertMini adds a dead mini with disambiguator d to n in sorted position
// and returns its handle. The caller must ensure d is not already present and
// that d.Site fits 48 bits (identifier validation does).
func (t *Tree) insertMini(n *node, d ident.Dis) miniH {
	h := miniH(t.minis.alloc())
	m := t.mini(h)
	m.counter, m.siteLo, m.siteHi = d.Counter, uint32(d.Site), uint16(d.Site>>32)
	link := &n.first
	for *link != 0 {
		o := t.mini(*link)
		if o.dis().Compare(d) >= 0 {
			break
		}
		link = &o.next
	}
	m.next, *link = *link, h
	return h
}

// unlinkMini removes mini mh from n's chain and releases its record.
func (t *Tree) unlinkMini(n *node, mh miniH) {
	link := &n.first
	for *link != mh {
		link = &t.mini(*link).next
	}
	*link = t.mini(mh).next
	t.minis.release(uint32(mh))
}

// findMini returns the mini of n with disambiguator d, or 0.
func (t *Tree) findMini(n *node, d ident.Dis) miniH {
	for mh := n.first; mh != 0; {
		m := t.mini(mh)
		if m.dis() == d {
			return mh
		}
		mh = m.next
	}
	return 0
}

// cacheWalk records a completed walk to slot s at identifier p. The
// identifier is copied into a tree-owned buffer, so callers may reuse p.
// Callers must have validated p (every walk does): cache-resumed walks
// validate only the elements beyond the shared prefix, which is sound
// precisely because everything cached here is known well-formed.
func (t *Tree) cacheWalk(p ident.Path, s slot) {
	t.ckID = append(t.ckID[:0], p...)
	t.ck = s
}

// cacheWalkFrom is cacheWalk for walks that resumed from the cache at depth
// skip: resumeSlot verified ckID[:skip] == p[:skip] element-wise and nothing
// rewrites ckID mid-walk, so only the suffix needs copying. Consecutive
// edits in one region share almost their whole identifier, making this the
// common case an O(1)-ish cache update instead of an O(depth) copy. If the
// cache was dropped mid-walk the prefix guarantee is gone and the whole
// identifier is copied.
func (t *Tree) cacheWalkFrom(p ident.Path, s slot, skip int) {
	if t.ck.mini == 0 {
		skip = 0
	}
	t.ckID = append(t.ckID[:skip], p[skip:]...)
	t.ck = s
}

// cacheDrop invalidates the walk cache. It must be called before any
// mini-node or node is released (the cached chain climbs parent handles,
// and a released record may be handed out again).
func (t *Tree) cacheDrop() { t.ck = slot{} }

// resumeSlot returns where a walk of p starts, plus the number of elements
// of p already consumed there: the caller's slot on p's route, if from is
// one, else the deepest walk slot shared between p and the cached last
// walk. Exact-prefix element equality guarantees the cached chain reaches
// the identical slot; the chain's nodes are materialised (never flat), so
// the skipped elements need no explosion checks.
func (t *Tree) resumeSlot(from Slot, p ident.Path) (slot, int) {
	if from.at.node != 0 {
		return from.at, from.depth
	}
	if t.ck.mini == 0 {
		return slot{node: rootH}, 0
	}
	last := t.ckID
	max := len(p)
	if len(last) < max {
		max = len(last)
	}
	j := 0
	for j < max && p[j] == last[j] {
		j++
	}
	if j == 0 {
		return slot{node: rootH}, 0
	}
	// Climb from the cached mini's node (at depth len(last)) to the node at
	// depth j, remembering the mini the chain hangs from below it: if
	// element j-1 selects a mini, that selection is the parent mini of the
	// node below (or the cached mini itself when j is the full cached depth).
	h, sel := t.ck.node, t.ck.mini
	for d, dir := len(last), nodeDir(t.nodes.chunks); d > j; d-- {
		n := dir.at(h)
		h, sel = n.parent, n.pmini
	}
	if p[j-1].Kind == ident.Major {
		return slot{node: h}, j
	}
	return slot{node: h, mini: sel}, j
}

// Len returns the number of live atoms in the document.
func (t *Tree) Len() int { return int(t.node(rootH).live) }

// Height returns the maximum node depth ever materialised (root = 0). It is
// maintained as a monotonic maximum between structural clean-ups; Flatten
// recomputes it.
func (t *Tree) Height() int { return t.height }

// Rev returns the current revision stamp.
func (t *Tree) Rev() int64 { return int64(t.rev) }

// AdvanceRev moves the revision clock forward; subsequent edits stamp
// subtrees with the new revision. The cold-subtree heuristics compare
// against these stamps. The clock is 32 bits like every node's stamp and
// saturates: past 2³²−1 revisions nothing edited looks cold again.
func (t *Tree) AdvanceRev() {
	if t.rev < math.MaxUint32 {
		t.rev++
	}
}

// depth returns the node's depth (root = 0).
func (t *Tree) depth(h nodeH) int {
	d, dir := 0, nodeDir(t.nodes.chunks)
	for p := dir.at(h).parent; p != 0; p = dir.at(p).parent {
		d++
	}
	return d
}

// empty reports whether the node has no contents at all: no minis, no flat
// region. Empty nodes are the free identifier slots reused by the balanced
// allocation strategy (Section 4.1).
func (n *node) empty() bool { return n.first == 0 && !n.flat }

// pathTo returns the structural path of major node h (ending in a Major
// element). The root yields the empty path.
func (t *Tree) pathTo(h nodeH) ident.Path {
	p := make(ident.Path, t.depth(h))
	var sel miniH
	for i := len(p) - 1; i >= 0; i-- {
		n := t.node(h)
		if sel != 0 {
			p[i] = ident.M(n.bit, t.mini(sel).dis())
		} else {
			p[i] = ident.J(n.bit)
		}
		h, sel = n.parent, n.pmini
	}
	return p
}

// bubble adjusts every counter from h to the root in one climb and stamps
// h's lastMod. lastMod is stamped only on h itself — the edit point — not
// the whole ancestor chain: subtree recency is the maximum stamp over the
// subtree, which coldWalk computes during its own traversal. The edit fast
// paths accumulate their whole delta set and climb once; the climb is the
// single hottest write loop of a deep-tree replay, so it writes the
// empty-slot counter only when it changes. Deltas are signed; the counters
// are unsigned and the additions wrap to the right sum.
func (t *Tree) bubble(h nodeH, dLive, dEmpty int) {
	if h == 0 {
		return
	}
	dir := nodeDir(t.nodes.chunks)
	dir.at(h).lastMod = t.rev
	if dEmpty == 0 {
		for h != 0 {
			n := dir.at(h)
			n.live += uint32(dLive)
			h = n.parent
		}
		return
	}
	for h != 0 {
		n := dir.at(h)
		n.live += uint32(dLive)
		n.emptyN += uint32(dEmpty)
		h = n.parent
	}
}

// heapBytes returns what the tree's structure occupies on the Go heap: the
// node and mini slabs and the atom store (records in use, free and never
// used) with their chunk directories, the atoms' free stack, and the
// flat-region map. It is O(1) — chunk counts times record sizes — and
// leaves out the atoms' own text and the arrays of flattened regions, which
// are the document rather than its overhead. A flats entry is priced at 48
// bytes: its key, slice header and share of a bucket.
func (t *Tree) heapBytes() int {
	return int(unsafe.Sizeof(*t)) + t.nodes.bytes(unsafe.Sizeof(node{})) + t.minis.bytes(unsafe.Sizeof(mini{})) +
		len(t.atoms.chunks)*atomChunk*16 + cap(t.atoms.chunks)*8 + cap(t.atoms.free)*4 + len(t.flats)*48
}

// errNotFound is returned by lookups of identifiers with no materialised
// mini-node.
var errNotFound = fmt.Errorf("doctree: identifier not found")

// IsNotFound reports whether err is the not-found lookup error.
func IsNotFound(err error) bool { return err == errNotFound }
