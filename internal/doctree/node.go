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
// public treedoc package adds locking. Nor does it check the elements of the
// identifiers it walks (InsertID only refuses one that names no atom): each
// is the expansion of a well-formed ident.Packed or a strategy's output.
package doctree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// contents are mini-nodes chained in disambiguator order from u.
// Children reached by plain path elements hang off the node itself (left,
// right); children reached by disambiguated elements hang off the
// individual mini-nodes, whose links live in Tree.mkids.
//
// A node with a reserve count r has no major children in the slabs: each
// stands for a complete subtree of r levels of empty nodes, built only when
// a walk enters it (see ReserveFrom and child).
//
// A node flagged flat is a flattened region (Section 4.2): its subtree's live
// atoms are a run of live handles from u (0: none), with no metadata, and
// it has no minis or children until a path walk explodes it.
//
// A node flagged solo holds its only mini, one with counter 0 and no
// children, with no mini record: its atom handle (0: a tombstone) in u and
// its site in site. A walk that needs the record — to hang a child from the
// mini or add a sibling — builds it back (unsolo), as child builds reserved
// nodes; a slot names it soloMini.
//
// The record is the paper's 4-byte-pointer node model made literal: 24
// bytes, every link a handle, a site a 2-byte index (Section 5.2), no Go
// pointer — the collector never scans a node chunk, and nothing reachable
// from a node keeps a detached subtree alive. The first 20 bytes hold what
// the two hot per-edit loops touch: the count-guided descent (kids, u,
// live) and the counter climb (parent, live). Of a subtree's empty nodes
// only whether it holds one is kept, in a bit; its node and tombstone
// counts are not: the rare cold-subtree scan sums them as it walks, as it
// does the edit stamps (Tree.stamps).
type node struct {
	parent nodeH    // node containing the slot we hang from; 0 at the root
	kids   [2]nodeH // major child slots: left, right
	u      uint32   // the mini chain's head; a solo's atom handle, 0 = dead; a run's shape; a region's first handle
	live   uint32   // live atoms in this subtree, including flat content

	flags   uint8  // the side of the parent slot (bit 0), onMini, flat, solo, hasEmpty, run
	reserve uint8  // levels of each reserved, unbuilt major-child subtree
	site    uint16 // a solo's site, an index into Tree.sites
}

// The flags of node.flags above its side bit.
const (
	onMiniF   = 2 << iota // the parent slot is one of its minis, found when needed (hangsFrom)
	flatF                 // a flattened region, its atoms a run of handles from u
	soloF                 // its one mini is held in the node
	hasEmptyF             // its subtree holds an empty node, built or reserved
	runF                  // a solo tomb standing for a chain of them (run.go)
)

// soloMini names a solo mini in a slot: no mini record has this handle.
const soloMini = miniH(maxRecords + 1)

func (n *node) bit() uint8     { return n.flags & 1 }
func (n *node) onMini() bool   { return n.flags&onMiniF != 0 }
func (n *node) flat() bool     { return n.flags&flatF != 0 }
func (n *node) solo() bool     { return n.flags&soloF != 0 }
func (n *node) hasEmpty() bool { return n.flags&hasEmptyF != 0 }
func (n *node) run() bool      { return n.flags&runF != 0 }

// liveAtom returns n's live solo's atom handle: 0 for none, a tomb, a run or a region.
func (n *node) liveAtom() uint32 { return n.u &^ -uint32(n.flags&runF/runF|(n.flags&soloF/soloF^1)) }

// emptyDelta returns n's hasEmpty bit as a bubble delta: 1 if it is set.
func (n *node) emptyDelta() int { return int(n.flags&hasEmptyF) / hasEmptyF }

// minis returns the head of n's chain of mini records: none for a solo or a region.
func (n *node) minis() miniH {
	if n.flags&(soloF|flatF) != 0 {
		return 0
	}
	return miniH(n.u)
}

// soloDis returns the disambiguator of n's solo mini.
func (t *Tree) soloDis(n *node) ident.Dis { return ident.Dis{Site: t.sites[n.site]} }

func (n *node) freeLink() *uint32 { return (*uint32)(&n.parent) }

// mini is a mini-node: one atom slot inside a major node, identified by its
// disambiguator (Section 3.1). A dead mini is a tombstone (SDIS) or an
// awaiting-discard placeholder (UDIS); its atom is gone but the identifier
// remains allocated. The atom is a handle into Tree.atoms, 0 for a dead
// mini, and the disambiguator's site an index into Tree.sites, so the
// record is 16 bytes with no Go pointer; a mini does not name its owner —
// every walk that reaches one knows the node it came through, and carries
// the pair as a slot.
type mini struct {
	atom    uint32 // handle into Tree.atoms; 0 = dead
	next    miniH  // next mini of the node, in disambiguator order: by real site, never by index
	counter uint32
	site    uint16 // index into Tree.sites
	hasKids bool   // children, which only concurrent inserts give (Section 3.1), linked in Tree.mkids
}

func (m *mini) freeLink() *uint32 { return (*uint32)(&m.next) }

// dis returns m's disambiguator.
func (t *Tree) dis(m *mini) ident.Dis { return ident.Dis{Counter: m.counter, Site: t.sites[m.site]} }

// Tree is a Treedoc document tree. The zero value is not usable; call New.
type Tree struct {
	// Every node, mini-node and live atom lives in these slabs and is named
	// by handle. A flatten returns the region's records to the free lists;
	// a whole-document flatten starts the slabs afresh.
	nodes slab[node, *node]
	minis slab[mini, *mini]
	atoms atomStore
	// mkids holds the child links of exactly the minis flagged hasKids, read
	// only under the flag; an entry goes with the mini's last child.
	mkids map[miniH][2]nodeH
	// stamps holds each node's edit stamp, the latest revision that edited
	// at it (see bubble), in chunks indexed by handle as the node slab's
	// are. Only the cold-subtree scan reads a stamp, and only a tree whose
	// revision clock moves writes a nonzero one: a chunk is allocated by
	// the first nonzero stamp written into it, and a missing one reads 0.
	stamps   []*[chunkLen]uint32
	limit    uint32 // records per slab; maxRecords outside tests
	reserved uint32 // nodes the reserve counts stand for, no record yet (see child)
	// sites is the site table, a record's site by its index in first-met
	// order from site 0, the canonical one's; order sorts the indices by site.
	sites     []ident.SiteID
	order     []uint16
	siteLimit int             // entries sites may hold: one per 16-bit index, outside tests
	siteBuf   [4]ident.SiteID // the first entries' room: a small table takes no allocation
	orderBuf  [4]uint16
	last      uint16 // the index that index last found

	height int    // max depth of any node (root = 0)
	rev    uint32 // the revision clock, which edits stamp nodes with

	// Walk cache: the identifier and slot of the last successful walk.
	// Consecutive operations on nearby identifiers (an insert run, an
	// insert followed by its delete) share long path prefixes, so the next
	// walk resumes from the deepest shared slot instead of the root. Any
	// structural removal (prune, flatten) drops it; see cacheDrop.
	ckID ident.Path
	ck   slot // ck.mini == 0: no cached walk
}

// New returns an empty document tree.
func New() *Tree {
	t := &Tree{limit: maxRecords, siteLimit: 1 << 16}
	t.sites, t.order = t.siteBuf[:1], t.orderBuf[:1]
	t.nodes.alloc() // rootH
	return t
}

// index returns site's index in the table, -1 for none, unless add enters
// it there, growing the table; the caller has made room (Tree.room).
//
//treedoc:noalloc
func (t *Tree) index(site ident.SiteID, add bool) int {
	if site == t.sites[t.last] { // an index never changes, so the last one found stays right
		return int(t.last)
	}
	at, ok := slices.BinarySearchFunc(t.order, site, func(i uint16, s ident.SiteID) int { return cmp.Compare(t.sites[i], s) })
	switch {
	case ok:
		t.last = t.order[at]
	case !add:
		return -1
	default:
		t.last, t.sites, t.order = uint16(len(t.sites)), append(t.sites, site), slices.Insert(t.order, at, uint16(len(t.sites)))
	}
	return int(t.last)
}

func (t *Tree) node(h nodeH) *node { return t.nodes.at(uint32(h)) }
func (t *Tree) mini(h miniH) *mini { return t.minis.at(uint32(h)) }

// nodeDir is the node slab's chunk directory held in a local: the climbs
// resolve one handle per level, and a local keeps the directory in
// registers where t.node would reload it from the tree after every store.
type nodeDir []*[chunkLen]node

func (d nodeDir) at(h nodeH) *node { return &d[h>>chunkShift][h&chunkMask] }

// stamp returns node h's edit stamp.
func (t *Tree) stamp(h nodeH) uint32 {
	if i := int(h >> chunkShift); i < len(t.stamps) && t.stamps[i] != nil {
		return t.stamps[i][h&chunkMask]
	}
	return 0
}

// setStamp sets node h's edit stamp to rev. Only a nonzero stamp allocates
// a missing chunk, with the directory up to the node slab's length.
func (t *Tree) setStamp(h nodeH, rev uint32) {
	i := int(h >> chunkShift)
	if i >= len(t.stamps) || t.stamps[i] == nil {
		if rev == 0 {
			return
		}
		t.stamps = append(t.stamps, make([]*[chunkLen]uint32, len(t.nodes.chunks)-len(t.stamps))...)
		t.stamps[i] = new([chunkLen]uint32)
	}
	t.stamps[i][h&chunkMask] = rev
}

// room reports ErrFull unless the slabs can hand out that many more nodes
// and minis and the site table take that many more sites. Every operation
// that allocates checks once, up front, with an upper bound of what it may
// need, so the allocation paths cannot fail.
func (t *Tree) room(nodes, minis, sites int) error {
	if uint64(t.nodes.used())+uint64(nodes) > uint64(t.limit) || uint64(t.minis.used())+uint64(minis) > uint64(t.limit) ||
		len(t.sites)+sites > t.siteLimit {
		return ErrFull
	}
	return nil
}

// Admits reports ErrFull unless the tree can take a local edit by site
// that builds at most records node and mini records: site in the table or
// room for it there, and the records beside the ones reserved subtrees
// stand for. A local edit checks before it changes anything.
func (t *Tree) Admits(site ident.SiteID, records int) error {
	sites := 0
	if t.index(site, false) < 0 {
		sites = 1
	}
	return t.room(records+int(t.reserved), records, sites)
}

// newNode allocates a node hanging from slot s on side bit, unstamped. It
// does not link it into the slot.
func (t *Tree) newNode(s slot, bit uint8) nodeH {
	h := nodeH(t.nodes.alloc())
	t.setStamp(h, 0) // a released handle keeps its stamp
	n := t.node(h)
	if n.parent, n.flags = s.node, bit; s.mini != 0 {
		n.flags |= onMiniF
	}
	return h
}

// hangsFrom returns the slot node h (record n) hangs from.
func (t *Tree) hangsFrom(h nodeH, n *node) slot {
	for mh := t.node(n.parent).minis(); n.onMini() && mh != 0; mh = t.mini(mh).next {
		if t.kids(slot{n.parent, mh})[n.bit()] == h {
			return slot{n.parent, mh}
		}
	}
	return slot{node: n.parent}
}

// insertMini adds a dead mini with disambiguator d to node h in sorted
// position and returns its handle. The caller ensures d is not present, that
// d.Site fits 48 bits (every ident.Packed's does) and that the table has room.
func (t *Tree) insertMini(h nodeH, d ident.Dis) miniH {
	n := t.node(h)
	if n.solo() {
		t.unsolo(h)
	}
	mh := miniH(t.minis.alloc())
	m := t.mini(mh)
	m.counter, m.site = d.Counter, uint16(t.index(d.Site, true))
	link := (*miniH)(&n.u)
	for *link != 0 {
		o := t.mini(*link)
		if t.dis(o).Compare(d) >= 0 {
			break
		}
		link = &o.next
	}
	m.next, *link = *link, mh
	return mh
}

// unlinkMini removes mini mh from n's chain and releases its record.
func (t *Tree) unlinkMini(n *node, mh miniH) {
	if mh == soloMini {
		n.u, n.site = 0, 0
		n.flags &^= soloF
		return
	}
	link := (*miniH)(&n.u)
	for *link != mh {
		link = &t.mini(*link).next
	}
	*link = t.mini(mh).next
	t.minis.release(uint32(mh))
}

// unsolo builds node h's solo mini back as a record, moving the walk cache
// with it, and returns its handle.
func (t *Tree) unsolo(h nodeH) miniH {
	n := t.node(h)
	mh := miniH(t.minis.alloc())
	m := t.mini(mh)
	m.atom, m.site = n.u, n.site
	n.u, n.site = uint32(mh), 0
	n.flags &^= soloF
	if t.ck == (slot{h, soloMini}) {
		t.ck.mini = mh
	}
	return mh
}

// atomOf returns where the atom handle of s's mini lies.
func (t *Tree) atomOf(s slot) *uint32 {
	if s.mini == soloMini {
		return &t.node(s.node).u
	}
	return &t.mini(s.mini).atom
}

// findMini returns the mini of n with disambiguator d, or 0. It maps d's
// site to its index once: a site the table lacks is no mini's.
func (t *Tree) findMini(n *node, d ident.Dis) miniH {
	site := t.index(d.Site, false)
	if n.solo() && int(n.site) == site && d.Counter == 0 {
		return soloMini
	}
	for mh := n.minis(); mh != 0; {
		m := t.mini(mh)
		if int(m.site) == site && m.counter == d.Counter {
			return mh
		}
		mh = m.next
	}
	return 0
}

// cacheWalk records a completed walk to slot s at identifier p. The
// identifier is copied into a tree-owned buffer, so callers may reuse p.
func (t *Tree) cacheWalk(p ident.Path, s slot) {
	t.ckID = append(t.ckID[:0], p...)
	t.ck = s
}

// cacheDrop invalidates the walk cache. It must be called before any
// mini-node or node is released: the cached chain climbs parent handles,
// and a released record may be handed out again.
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
	last, j := t.ckID, 0
	for j < min(len(p), len(last)) && p[j] == last[j] {
		j++
	}
	// Climb from the cached mini's node (at depth len(last)) to the node at
	// depth j, or above the run j falls in. If element j-1 selects a mini,
	// the cached chain hangs from (or ends at) the node's mini with that
	// element's disambiguator.
	h, dir := t.ck.node, nodeDir(t.nodes.chunks)
	for d := len(last); d > j; h = dir.at(h).parent {
		d -= dir.at(h).runLen()
		j = min(j, d)
	}
	if j == 0 {
		return slot{node: rootH}, 0
	}
	if p[j-1].Kind == ident.Major {
		return slot{node: h}, j
	}
	return slot{node: h, mini: t.findMini(dir.at(h), p[j-1].Dis)}, j
}

// Len returns the number of live atoms in the document.
func (t *Tree) Len() int { return int(t.node(rootH).live) }

// Height returns the maximum node depth ever reached, reserved nodes
// included (root = 0). It is maintained as a monotonic maximum between
// structural clean-ups; Flatten recomputes it.
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

// depth returns the depth of the node's last member (root = 0).
func (t *Tree) depth(h nodeH) (d int) {
	for dir := nodeDir(t.nodes.chunks); h != rootH; h = dir.at(h).parent {
		d += dir.at(h).runLen()
	}
	return d
}

// empty reports whether the node has no contents at all: no minis, no
// solo, no flat region. Empty nodes are the free identifier slots reused by
// the balanced allocation strategy (Section 4.1).
func (n *node) empty() bool { return n.u == 0 && n.flags&(flatF|soloF) == 0 }

// reservedNodes returns the empty nodes a reserve count of r stands for.
func reservedNodes(r uint8) uint32 { return 1<<(r+1) - 2 }

// pathTo returns the structural path of major node h (ending in a Major
// element), of a run its top member. The root yields the empty path.
func (t *Tree) pathTo(h nodeH) ident.Path {
	n := t.node(h)
	p := make(ident.Path, t.depth(h)-n.runLen()+1)
	for i, s := len(p)-1, (slot{node: h}); i >= 0; i-- {
		if n = t.node(s.node); s.node != h { // every member of a run above h
			i -= n.runLen() - 1
			n.appendRun(p[i+1 : i+1])
		}
		if p[i] = ident.J(n.bit()); s.mini != 0 {
			p[i] = ident.M(n.bit(), t.dis(t.mini(s.mini)))
		}
		s = t.hangsFrom(s.node, n)
	}
	return p
}

// bubble adds dLive to every live counter from h to the root, stamps h —
// the edit point only: coldWalk takes a subtree's recency as the maximum
// stamp in it — and, if h's subtree gained (dEmpty > 0) or lost
// (< 0) an empty node, sets the hasEmpty bits up to the first ancestor
// that has one or recomputes them up to the first whose bit holds. The
// counters are unsigned and the signed additions wrap to the right sum.
func (t *Tree) bubble(h nodeH, dLive, dEmpty int) {
	if h == 0 {
		return
	}
	t.setStamp(h, t.rev)
	dir := nodeDir(t.nodes.chunks)
	for p := h; dEmpty != 0 && p != 0; {
		n := dir.at(p)
		bit := uint8(hasEmptyF)
		if dEmpty < 0 && !t.holdsEmpty(p, n) {
			bit = 0
		}
		if n.flags&hasEmptyF == bit {
			break
		}
		n.flags ^= hasEmptyF
		p = n.parent
	}
	for dLive != 0 && h != 0 {
		n := dir.at(h)
		n.live += uint32(dLive)
		h = n.parent
	}
}

// holdsEmpty recomputes node h's hasEmpty bit: whether h is an empty node,
// reserves some, or has a child, major or below a mini, with the bit.
func (t *Tree) holdsEmpty(h nodeH, n *node) bool {
	if h != rootH && n.empty() || n.reserve != 0 || t.node(n.kids[0]).hasEmpty() || t.node(n.kids[1]).hasEmpty() {
		return true
	}
	for mh := n.minis(); mh != 0; mh = t.mini(mh).next {
		if kids := t.miniKids(mh, t.mini(mh)); t.node(kids[0]).hasEmpty() || t.node(kids[1]).hasEmpty() {
			return true
		}
	}
	return false
}

// heapBytes returns what the tree's structure occupies on the Go heap: the
// node and mini slabs (records in use, free and never used), the stamp
// chunks and atom blocks with their directories, the atom buffers' spare
// capacity and free stack, the mini-child map at 16 bytes an entry (key,
// value and share of a group) and the site table past its room in the tree.
// It reads a word per 64 nodes and 64 atoms, and no text: that is the document.
func (t *Tree) heapBytes() int {
	b := int(unsafe.Sizeof(*t)) + t.nodes.bytes(unsafe.Sizeof(node{})) + t.minis.bytes(unsafe.Sizeof(mini{})) +
		len(t.atoms.blocks)*int(unsafe.Sizeof(atomBlock{})) + cap(t.atoms.blocks)*8 + cap(t.atoms.free)*4 + len(t.mkids)*16 + cap(t.stamps)*8 +
		min(1, cap(t.sites)/(len(t.siteBuf)+1))*(8*cap(t.sites)+2*cap(t.order))
	for _, c := range t.stamps {
		if c != nil {
			b += int(unsafe.Sizeof(*c))
		}
	}
	for _, k := range t.atoms.blocks {
		b += cap(k.buf) - len(k.buf)
	}
	return b
}

// errNotFound is returned by lookups of identifiers with no materialised
// mini-node.
var errNotFound = fmt.Errorf("doctree: identifier not found")
