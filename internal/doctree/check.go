package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// Check verifies the tree's structural invariants. It is exercised by tests
// and property checks; a healthy tree always returns nil.
//
// Invariants:
//  1. Parent/child backlinks are consistent, onMini flags included.
//  2. Mini-nodes are strictly ordered by disambiguator within each node.
//  3. Cached live counts match a full recount, and a hasEmpty bit is set
//     exactly where a recount finds an empty node, a reserve count standing
//     for the empty nodes of its node's two missing major subtrees;
//     Tree.reserved is the sum of those.
//  4. A mini, solo or not, is dead exactly when its atom handle is 0; a
//     live mini's handle is its alone, and the handles in use plus the atom
//     store's free stack are every handle handed out. A free, nil or unused
//     handle holds no text; block ends ascend to the unroomy buffer's end.
//  5. A flattened node has no minis or children, and holds a run of its
//     live count's handles, its alone, from its atom handle (0 for none).
//  6. The identifiers of live atoms are strictly increasing in document
//     order (the infix walk agrees with ident.Compare).
//  7. Every record is reachable from the root exactly once or is on its
//     slab's free list, and the nil records are untouched.
//  8. Tree.mkids has an entry naming a child for exactly the minis flagged.
//  9. A solo is neither the root nor flat, and counts as no empty slot;
//     holding no mini record, it holds no mini-children (invariant 7).
//  10. The walk cache, if set, names a slot of the tree: a mini in its
//     node's chain, or the node's solo.
//  11. A run holds 2 to maxRun members and no side bit past them, and no
//     node is stamped after the revision clock, which join rests on.
//  12. The site table holds site 0 at index 0 and no site twice, its order
//     sorts it, and a record names no index past it; a node names one only
//     as a solo.
func (t *Tree) Check() error {
	root := t.node(rootH)
	if root.parent != 0 || root.onMini() {
		return fmt.Errorf("doctree: root has a parent")
	}
	if *t.node(0) != (node{}) || (len(t.minis.chunks) > 0 && *t.mini(0) != (mini{})) ||
		(len(t.atoms.blocks) > 0 && len(t.atoms.text(0)) != 0) {
		return fmt.Errorf("doctree: nil record written")
	}
	for k, b := range t.atoms.blocks {
		lo, ok := uint32(0), !roomy(len(b.buf), cap(b.buf), k == int(t.atoms.n>>chunkShift))
		for _, e := range b.end[:min(chunkLen, t.atoms.n+1-uint32(k)<<chunkShift)] { // ascending to the last handle handed out
			ok, lo = ok && e >= lo, e
		}
		if !ok || int(lo) != len(b.buf) {
			return fmt.Errorf("doctree: atom block %d: ends %v in a buffer of %d bytes and capacity %d", k, b.end, len(b.buf), cap(b.buf))
		}
	}
	for i, o := range t.order {
		if len(t.order) != len(t.sites) || len(t.sites) > t.siteLimit || t.sites[0] != 0 || int(o) >= len(t.sites) || i > 0 && t.sites[t.order[i-1]] >= t.sites[o] {
			return fmt.Errorf("doctree: site table %v, its order %v", t.sites, t.order)
		}
	}
	c := &checker{t: t, held: make([]bool, t.atoms.n+1)}
	for _, h := range t.atoms.free {
		if err := c.hold(h); err != nil || len(t.atoms.text(h)) != 0 {
			return fmt.Errorf("doctree: free atom handle %d out of range, repeated or holding text", h)
		}
	}
	if _, err := c.node(rootH, 0); err != nil {
		return err
	}
	if c.nodes != t.nodes.used() || c.minis != t.minis.used() || c.handles != t.atoms.n || c.kidded != len(t.mkids) {
		return fmt.Errorf("doctree: reached %d nodes, %d minis, %d atom handles, free ones included, and %d minis with children; the tree holds %d, %d, %d and %d mini-child entries",
			c.nodes, c.minis, c.handles, c.kidded, t.nodes.used(), t.minis.used(), t.atoms.n, len(t.mkids))
	}
	if c.reserved != t.reserved {
		return fmt.Errorf("doctree: reserve counts stand for %d nodes, the tree counts %d", c.reserved, t.reserved)
	}
	if t.ck.mini != 0 && !c.cached {
		return fmt.Errorf("doctree: the walk cache names node %d mini %d, no slot of the tree", t.ck.node, t.ck.mini)
	}
	return nil
}

// checker carries one Check. For invariant 6 the walk keeps the current
// identifier in a reused buffer, one element per level, and the previous
// live atom's in a second, so Check stays linear in the tree's size with
// O(height) extra memory.
type checker struct {
	t            *Tree
	nodes, minis uint32 // records reached from the root
	kidded       int    // minis reached flagged hasKids
	handles      uint32 // atom handles reached, and free ones
	reserved     uint32 // nodes the reserve counts reached stand for
	cached       bool   // the walk cache's slot was reached
	held         []bool // atom handles seen in use or on the free stack
	cur, prev    ident.Path
}

// set sets element i of the current identifier to e, growing it as needed.
func (c *checker) set(i int, e ident.Elem) {
	for len(c.cur) <= i {
		c.cur = append(c.cur, ident.Elem{})
	}
	c.cur[i] = e
}

// counts are a subtree's recomputed live atoms and empty nodes.
type counts struct{ live, empty uint32 }

// child validates the subtree in slot s on side bit, at depth d — its
// backlink, then the subtree itself — and adds its recomputed counts to sum.
func (c *checker) child(s slot, bit uint8, d int, sum *counts) error {
	h := c.t.kids(s)[bit]
	if h == 0 {
		return nil
	}
	if n := c.t.node(h); n.parent != s.node || n.onMini() != (s.mini != 0) || n.bit() != bit {
		return fmt.Errorf("doctree: bad backlink on child bit %d of node %d mini %d", bit, s.node, s.mini)
	}
	got, err := c.node(h, d)
	sum.live, sum.empty = sum.live+got.live, sum.empty+got.empty
	return err
}

// node validates h's subtree against its cached counters and returns them,
// visiting its live atoms in infix order. h is at depth d: cur[:d-1] is
// the route to the slot it hangs from, and h owns element d-1, a bare bit
// in its major subtrees and the bit and a mini's disambiguator at the
// mini. Flattened atoms have canonical identifiers by construction and are
// not compared (that would materialise the region).
func (c *checker) node(h nodeH, d int) (counts, error) {
	t := c.t
	if uint32(h) > t.nodes.n || c.nodes >= t.nodes.used() {
		return counts{}, fmt.Errorf("doctree: node handle %d out of range or reached twice", h)
	}
	c.nodes++
	n := t.node(h)
	var sum counts
	if n.flat() {
		if n.kids != [2]nodeH{} || n.solo() || (n.u == 0) != (n.live == 0) {
			return counts{}, fmt.Errorf("doctree: flattened node %d has structure, a solo, or atom handle %d for %d atoms", h, n.u, n.live)
		}
		for i := uint32(0); i < n.live; i++ {
			if err := c.hold(n.u + i); err != nil {
				return counts{}, err
			}
		}
		sum.live = n.live
	} else if d == 0 && !n.empty() {
		return counts{}, fmt.Errorf("doctree: root holds mini-nodes")
	}
	if int(n.site) >= len(t.sites) || n.site != 0 && !n.solo() {
		return counts{}, fmt.Errorf("doctree: node %d names site %d of a table of %d, or names one and is no solo", h, n.site, len(t.sites))
	} else if k := n.runLen(); n.run() && (k < 2 || k > maxRun || n.u>>(4+k) != 0) {
		return counts{}, fmt.Errorf("doctree: node %d is a broken run: %d members, side bits %#x", h, k, n.u>>5)
	} else if st := t.stamp(h); st > t.rev {
		return counts{}, fmt.Errorf("doctree: node %d is stamped %d, after the revision clock's %d", h, st, t.rev)
	}
	c.cached = c.cached || t.ck == slot{h, soloMini} && n.solo()
	if d > 0 {
		c.set(d-1, ident.J(n.bit()))
	}
	last := d + n.runLen() - 1 // a run owns an element per member
	c.cur = n.appendRun(c.cur[:d])
	if err := c.child(slot{node: h}, 0, last+1, &sum); err != nil {
		return counts{}, err
	}
	if a := n.liveAtom(); a != 0 {
		c.set(d-1, ident.M(n.bit(), t.soloDis(n)))
		if err := c.atom(a, d, &sum); err != nil {
			return counts{}, err
		}
	}
	var prev *mini
	for mh := n.minis(); mh != 0; {
		if uint32(mh) > t.minis.n || c.minis >= t.minis.used() {
			return counts{}, fmt.Errorf("doctree: mini handle %d out of range or reached twice", mh)
		}
		c.minis++
		m := t.mini(mh)
		if int(m.site) >= len(t.sites) || prev != nil && t.dis(prev).Compare(t.dis(m)) >= 0 {
			return counts{}, fmt.Errorf("doctree: mini %d names a site past the table or is out of order", mh)
		}
		c.cached = c.cached || t.ck == slot{h, mh}
		if m.hasKids {
			if t.mkids[mh] == [2]nodeH{} {
				return counts{}, fmt.Errorf("doctree: mini %s is flagged with children, but no entry names one", t.dis(m))
			}
			c.kidded++
		}
		c.set(d-1, ident.M(n.bit(), t.dis(m)))
		if err := c.child(slot{h, mh}, 0, d+1, &sum); err != nil {
			return counts{}, err
		} else if err := c.atom(m.atom, d, &sum); err != nil {
			return counts{}, err
		} else if err := c.child(slot{h, mh}, 1, d+1, &sum); err != nil {
			return counts{}, err
		}
		prev, mh = m, m.next
	}
	if d > 0 {
		c.set(d-1, ident.J(n.bit()))
	}
	if err := c.child(slot{node: h}, 1, last+1, &sum); err != nil {
		return counts{}, err
	}
	if h != rootH && n.empty() {
		sum.empty++ // the root cannot hold mini-nodes: it is never a reusable slot
	}
	if n.reserve != 0 && (n.kids != [2]nodeH{} || n.flat() || n.reserve > 30) {
		return counts{}, fmt.Errorf("doctree: node %d reserves %d levels beside children or a flat region", h, n.reserve)
	}
	sum.empty += reservedNodes(n.reserve)
	c.reserved += reservedNodes(n.reserve)
	if n.live != sum.live || n.hasEmpty() != (sum.empty != 0) {
		return counts{}, fmt.Errorf("doctree: node %d counts %d live atoms, hasEmpty %v; a recount finds %d and %d empty nodes",
			h, n.live, n.hasEmpty(), sum.live, sum.empty)
	}
	return sum, nil
}

// hold takes atom handle a, in use or free: in range, and taken once.
func (c *checker) hold(a uint32) error {
	if a == 0 || a > c.t.atoms.n || c.held[a] {
		return fmt.Errorf("doctree: atom handle %d out of range, free or shared", a)
	}
	c.held[a] = true
	c.handles++
	return nil
}

// atom takes atom handle a (0: none) for the mini whose identifier is
// cur[:d], which must sort after the previous live atom's.
func (c *checker) atom(a uint32, d int, sum *counts) error {
	if a == 0 {
		return nil
	}
	if err := c.hold(a); err != nil {
		return err
	}
	sum.live++
	id := c.cur[:d]
	if err := id.Validate(); err != nil {
		return fmt.Errorf("doctree: atom identifier %v is invalid: %w", id.Clone(), err)
	}
	if len(c.prev) > 0 && ident.Compare(c.prev, id) >= 0 {
		return fmt.Errorf("doctree: atom identifier %v does not sort after %v", id.Clone(), c.prev.Clone())
	}
	c.prev = append(c.prev[:0], id...)
	return nil
}
