package doctree

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/treedoc/treedoc/internal/ident"
)

// slot is a walk position: either the major slot of a node or one of its
// mini-nodes. The next path element departs from the slot's children.
type slot struct {
	node nodeH
	mini miniH // 0 = major slot
}

// Slot is a walk position for a caller to come back to: the slot the first
// depth elements of an identifier lead to; the zero Slot is none. A local
// insert carries its neighbours' slots from the neighbour descent into the
// insert. A slot stays valid while the tree only grows.
type Slot struct {
	at    slot
	depth int
	run   bool // the identifier goes on into the run below at, to a member (see ExistsFrom)
}

// Major returns the major slot of s's node, at the same depth: above a run,
// s itself, on the route already.
func (s Slot) Major() Slot {
	if !s.run {
		s.at.mini = 0
	}
	return s
}

// Gap is where an insertion gap's neighbours lie: the slots of the atoms
// before (P) and after (F) it, the zero Slot at a document edge.
type Gap struct{ P, F Slot }

// kids returns the slot's two child links, indexed by path bit.
func (t *Tree) kids(s slot) [2]nodeH {
	switch s.mini {
	case 0:
		return t.node(s.node).kids
	case soloMini:
		return [2]nodeH{}
	}
	return t.miniKids(s.mini, t.mini(s.mini))
}

// miniKids returns the child links of mini mh, whose record is m: the hot
// loops read the flag from the record they hold, the table only under it.
func (t *Tree) miniKids(mh miniH, m *mini) [2]nodeH {
	if !m.hasKids {
		return [2]nodeH{}
	}
	return t.mkids[mh]
}

// setKid links h (0: none) into slot s on side bit.
func (t *Tree) setKid(s slot, bit uint8, h nodeH) {
	switch s.mini {
	case 0:
		t.node(s.node).kids[bit] = h
		return
	case soloMini:
		s.mini = t.unsolo(s.node)
	}
	m, kids := t.mini(s.mini), t.kids(s)
	kids[bit] = h
	if m.hasKids = kids != [2]nodeH{}; !m.hasKids {
		delete(t.mkids, s.mini)
	} else if t.mkids != nil {
		t.mkids[s.mini] = kids
	} else {
		t.mkids = map[miniH][2]nodeH{s.mini: kids}
	}
}

// walkMini locates the mini-node with identifier p, without materialising
// anything. It returns errNotFound if any step is missing. Walking into a
// flattened region explodes it first (Section 4.2: "array storage is
// converted to tree storage when necessary, e.g., when applying a path to
// an array").
func (t *Tree) walkMini(p ident.Path) (slot, error) {
	cur, i := t.resumeSlot(Slot{}, p)
	for ; i < len(p); i++ {
		e := p[i]
		if err := t.explode(cur.node); err != nil {
			return slot{}, err
		}
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			return slot{}, errNotFound
		}
		if t.node(next).run() && t.room(2, 0, 0) != nil { // a run the walk stops in is cut
			return slot{}, ErrFull
		}
		next, i = t.enter(next, p, i) // a duplicate delete cuts a run's tomb out, as a revive would
		e = p[i]
		if e.Kind == ident.Mini || i+1 < len(p) {
			if err := t.explode(next); err != nil {
				return slot{}, err
			}
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		m := t.findMini(t.node(next), e.Dis)
		if m == 0 {
			return slot{}, errNotFound
		}
		cur = slot{node: next, mini: m}
	}
	t.cacheWalk(p, cur)
	return cur, nil
}

// materialize walks identifier p, creating any missing node and mini-node
// along the way (Section 3.3.1: replay "must re-create empty nodes to
// replace them" where a concurrent discard took them). A mini it creates
// is dead, a solo if it is p's last, its node empty and its counter 0. It
// returns the slot p ends at and the shallowest node it created, 0 for
// none: the created nodes are a suffix of the route (a created node's
// children cannot pre-exist), left for settle to count. from is a slot on
// p's route, or the zero Slot to resume from the walk cache.
func (t *Tree) materialize(from Slot, p ident.Path) (slot, nodeH, error) {
	cur, i := t.resumeSlot(from, p)
	news := 0 // the sites p's steps name that the table lacks, each once, counted only near the limit
	for j := i; j < len(p) && len(t.sites)+len(p)-i > t.siteLimit; j++ {
		if t.index(p[j].Dis.Site, false) < 0 && !slices.ContainsFunc(p[i:j], func(o ident.Elem) bool { return o.Dis.Site == p[j].Dis.Site }) {
			news++
		}
	}
	if err := t.room(2*len(p), 2*len(p), news); err != nil { // a step may build a reserved child and its sibling, a mini beside a solo two records
		return slot{}, 0, err
	}
	var made nodeH
	for ; i < len(p); i++ {
		e := p[i]
		if err := t.explode(cur.node); err != nil {
			return slot{}, 0, err
		}
		next := t.child(cur, e.Bit)
		if next == 0 {
			next = t.newNode(cur, e.Bit)
			t.setKid(cur, e.Bit, next)
			made = cmp.Or(made, next)
			t.height = max(t.height, i+1)
		} else if err := t.explode(next); err != nil {
			return slot{}, 0, err
		}
		next, i = t.enter(next, p, i)
		e = p[i]
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		n := t.node(next)
		m, free := t.findMini(n, e.Dis), n.empty()
		if free && i+1 == len(p) && e.Dis.Counter == 0 { // a solo, dead
			m, n.site, n.flags = soloMini, uint16(t.index(e.Dis.Site, true)), n.flags|soloF
		} else if m == 0 {
			m = t.insertMini(next, e.Dis)
		}
		if free && made == 0 { // a node that existed stops being a free slot
			t.bubble(next, 0, -1)
		}
		cur = slot{node: next, mini: m}
	}
	if from.at.node == 0 {
		t.cacheWalk(p, cur)
	}
	return cur, made, nil
}

// settle counts what materialize made on the way to node h, dLive live
// atoms placed there (an insert's 1, a reservation's 0): the created nodes,
// from h up to made, bottom-up, then every counter above them in one climb.
func (t *Tree) settle(h, made nodeH, dLive int) {
	dEmpty := 0
	for top := t.node(made).parent; made != 0 && h != top; {
		n := t.node(h)
		if n.empty() {
			dEmpty++
		}
		if n.live = uint32(dLive); dEmpty != 0 {
			n.flags |= hasEmptyF
		}
		t.setStamp(h, t.rev)
		h = n.parent
	}
	if dLive != 0 || dEmpty != 0 { // a reservation that made no empty node edits nothing above
		t.bubble(h, dLive, dEmpty)
	}
}

// child returns the node in slot s on side bit for a walk that enters it.
// A reserved child is built here, with its sibling: both are empty nodes
// holding the rest of the count, and they take the stamp of the node they
// hang from.
func (t *Tree) child(s slot, bit uint8) nodeH {
	if s.mini != 0 {
		return t.kids(s)[bit]
	}
	n := t.node(s.node)
	if r := n.reserve; r != 0 {
		for b := range n.kids {
			n.kids[b] = t.newNode(s, uint8(b))
			c := t.node(n.kids[b])
			c.reserve, c.flags = r-1, c.flags|hasEmptyF
			t.setStamp(n.kids[b], t.stamp(s.node))
		}
		n.reserve, t.reserved = 0, t.reserved-2
	}
	return n.kids[bit]
}

// explode converts node h, if it is a flattened region, back into
// canonical tree form (Algorithm 2's explode): a complete binary subtree
// with the atoms assigned in infix order carrying the canonical
// disambiguator, so their identifiers are pure bitstrings below the region
// root.
func (t *Tree) explode(h nodeH) error {
	n := t.node(h)
	if !n.flat() {
		return nil
	}
	first, k := n.u, n.live
	// The canonical subtree holds a node per atom, its solo, plus at most one
	// atom-less node per level on the path to the last atom.
	if err := t.room(int(k)+64, 0, 0); err != nil {
		return fmt.Errorf("doctree: explode: %w", err)
	}
	n.u, n.flags = 0, n.flags&^flatF
	if k == 0 {
		if h == rootH {
			t.setStamp(h, t.rev) // the root is never a free slot
			return nil
		}
		// The empty node a region turns back into is a reusable slot.
		t.bubble(h, 0, +1)
		return nil
	}
	// The region's live count stays the same; nodes get rebuilt below.
	if h == rootH {
		// The root holds no atoms (ident.Path): fill its two child subtrees
		// as Algorithm 2 would, skipping the root slot itself.
		depth := 0
		for 2*subtreeCapacity(depth) < int(k) {
			depth++
		}
		nLeft := min(k, uint32(subtreeCapacity(depth)))
		n.kids[0] = t.buildCanonical(slot{node: h}, 0, first, nLeft, depth)
		n.kids[1] = t.buildCanonical(slot{node: h}, 1, first+nLeft, k-nLeft, depth)
		t.bubble(h, 0, max(t.node(n.kids[0]).emptyDelta(), t.node(n.kids[1]).emptyDelta()))
		t.height = max(t.height, depth)
		return nil
	}
	// Non-root region: the region root node itself holds the appropriate
	// infix atom, exactly as Algorithm 2 assigns identifiers.
	depth := 1
	for subtreeCapacity(depth) < int(k) {
		depth++
	}
	t.fillCanonical(h, first, k, depth)
	t.bubble(n.parent, 0, n.emptyDelta())
	t.setStamp(h, t.rev)
	t.height = max(t.height, t.depth(h)+depth-1)
	return nil
}

// subtreeCapacity returns the atom capacity of a complete subtree of the
// given depth (levels), rooted at a node that can hold an atom: 2^depth - 1;
// the atom-less root holds two of them.
func subtreeCapacity(depth int) int { return 1<<min(depth, 62) - 1 }

// fillCanonical populates existing node h as the root of a canonical
// complete subtree of the given depth holding the k atoms of handles from
// first in infix order, each its node's solo mini. The node must have no
// minis or children. It sets the node's counts but does not touch ancestors.
func (t *Tree) fillCanonical(h nodeH, first, k uint32, depth int) {
	n := t.node(h)
	nLeft := min(k, uint32(subtreeCapacity(depth-1)))
	n.kids[0] = t.buildCanonical(slot{node: h}, 0, first, nLeft, depth-1)
	if k > nLeft {
		n.u, n.flags = first+nLeft, n.flags|soloF // a solo of site 0: canonical
		n.kids[1] = t.buildCanonical(slot{node: h}, 1, first+nLeft+1, k-nLeft-1, depth-1)
	}
	n.live = k
	if t.holdsEmpty(h, n) {
		n.flags |= hasEmptyF
	}
}

// buildCanonical allocates the canonical complete subtree for the k atoms
// with handles from first (in infix order) as the bit-child of slot s,
// returning the new node, or 0 for no atoms.
func (t *Tree) buildCanonical(s slot, bit uint8, first, k uint32, depth int) nodeH {
	if k == 0 {
		return 0
	}
	h := t.newNode(s, bit)
	t.fillCanonical(h, first, k, depth)
	return h
}

// Flatten replaces the subtree rooted at the node designated by path with a
// run of atom handles holding its live content (Algorithm 2's flatten): all
// tombstones and identifier metadata in the region are discarded, and the
// region's node and mini records go back to the slabs' free lists — or,
// when the region is the whole document, the slabs are reset and every
// chunk is dropped. Every live atom moves to a fresh atom store, the
// region's first, as one run: the old store goes to the collector whole,
// and no handle is left free. The path must designate a major node: the
// empty path (whole document) or a structural path ending in a Major
// element; an atom identifier's node is addressed by its StripLastDis form.
//
// Flatten is a structural clean-up, not a CRDT operation: callers must
// establish that no concurrent edits target the region (the paper's
// commitment, a flatten round in internal/transport/flatten.go).
func (t *Tree) Flatten(path ident.Path) error {
	h, err := t.walkNode(path)
	if err != nil {
		return err
	}
	t.cacheDrop()
	n := t.node(h)
	live, skip, count, dEmpty := n.live, 0, int(n.live), -n.emptyDelta()
	var atoms atomStore
	atoms.load(func(add func([]byte) uint32) {
		t.visitRange(h, &skip, &count, func(a []byte) bool { add(a); return true })
		if h == rootH {
			return
		}
		// The region's records go; every other atom follows, another region's
		// as a run, and its holder takes the new handle.
		t.releaseBelow(h)
		for r := uint32(1); r <= t.nodes.n; r++ { // a free record is zero: no atom, no region
			o := t.node(nodeH(r))
			if a := o.u; o.liveAtom() != 0 || o.flat() && o.live > 0 { // a live solo's handle, a region's run
				o.u = add(t.atoms.text(a))
				for i := uint32(1); i < o.live && o.flat(); i++ {
					add(t.atoms.text(a + i))
				}
			}
		}
		for r := uint32(1); r <= t.minis.n; r++ {
			if m := t.mini(miniH(r)); m.atom != 0 {
				m.atom = add(t.atoms.text(m.atom))
			}
		}
	})
	if h == rootH { // the tree starts afresh, its site table too
		*t = Tree{limit: t.limit, siteLimit: t.siteLimit, rev: t.rev, atoms: atoms}
		t.sites, t.order = t.siteBuf[:1], t.orderBuf[:1]
		t.nodes.alloc() // rootH again
		n = t.node(rootH)
	} else {
		t.atoms = atoms
		t.bubble(n.parent, 0, dEmpty)
		t.height = t.maxDepth(rootH, 0)
	}
	n.live, n.u, n.flags = live, min(live, 1), n.flags|flatF // the region's run is handles 1 to live
	t.setStamp(h, t.rev)
	return nil
}

// FlattenAll flattens the entire document to a plain array: the paper's
// best case, "a compacted Treedoc reduces to a sequential array, with zero
// overhead".
func (t *Tree) FlattenAll() error { return t.Flatten(ident.Path{}) }

// releaseBelow detaches everything under h — children, minis and their
// children, a solo, a flat region — and returns the records to the free
// lists. h itself stays. The atoms are the caller's: Flatten moves those
// it keeps to a fresh store.
func (t *Tree) releaseBelow(h nodeH) {
	n := t.node(h)
	t.releaseSubtree(n.kids[0])
	t.releaseSubtree(n.kids[1])
	for mh := n.minis(); mh != 0; {
		next := t.mini(mh).next
		t.releaseSubtree(t.kids(slot{h, mh})[0])
		t.releaseSubtree(t.kids(slot{h, mh})[1])
		delete(t.mkids, mh) // or a recycled handle would inherit children
		t.minis.release(uint32(mh))
		mh = next
	}
	t.reserved -= reservedNodes(n.reserve)
	n.kids[0], n.kids[1], n.u, n.reserve, n.site = 0, 0, 0, 0, 0
	n.flags &^= flatF | soloF | hasEmptyF | runF
}

func (t *Tree) releaseSubtree(h nodeH) {
	if h == 0 {
		return
	}
	t.releaseBelow(h)
	t.nodes.release(uint32(h))
}

// walkNode locates the major node designated by a structural path (empty =
// root, otherwise every element including the last is followed; a final
// Major element selects the node itself).
func (t *Tree) walkNode(p ident.Path) (nodeH, error) {
	if len(p) > 0 && p.Last().Kind == ident.Mini {
		return 0, fmt.Errorf("doctree: path %v designates a mini-node, not a major node", p)
	}
	s, err := t.walkMini(p)
	if n := t.node(s.node); err == nil && n.run() { // its last member, a node of its own
		s.node = t.cut(s.node, n.runLen()-2)
	}
	return s.node, err
}

// maxDepth returns the depth of the deepest node under h, itself at depth d
// (d-1 for no node), reserved ones included: the height refresh after a
// structural clean-up removed nodes.
func (t *Tree) maxDepth(h nodeH, d int) int {
	if h == 0 {
		return d - 1
	}
	n := t.node(h)
	d += n.runLen() - 1 // a run's last member
	best := max(d+int(n.reserve), t.maxDepth(n.kids[0], d+1), t.maxDepth(n.kids[1], d+1))
	for mh := n.minis(); mh != 0; {
		m := t.mini(mh)
		best = max(best, t.maxDepth(t.kids(slot{h, mh})[0], d+1), t.maxDepth(t.kids(slot{h, mh})[1], d+1))
		mh = m.next
	}
	return best
}
