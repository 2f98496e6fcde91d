package doctree

import (
	"fmt"

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
}

// Major returns the major slot of s's node, at the same depth.
func (s Slot) Major() Slot { return Slot{slot{node: s.at.node}, s.depth} }

// Gap is where an insertion gap's neighbours lie: the slots of the atoms
// before (P) and after (F) it, the zero Slot at a document edge.
type Gap struct{ P, F Slot }

// kids returns the slot's two child links, indexed by path bit.
func (t *Tree) kids(s slot) *[2]nodeH {
	if s.mini != 0 {
		return &t.mini(s.mini).kids
	}
	return &t.node(s.node).kids
}

// walkMini locates the mini-node with identifier p, without materialising
// anything. It returns errNotFound if any step is missing. Walking into a
// flattened region explodes it first (Section 4.2: "array storage is
// converted to tree storage when necessary, e.g., when applying a path to
// an array").
func (t *Tree) walkMini(p ident.Path) (slot, error) {
	cur, skip := t.resumeSlot(Slot{}, p)
	// The resumed prefix matched a cached, already-validated identifier
	// elementwise, so only the remaining elements need checking.
	if err := p.ValidateFrom(skip); err != nil {
		return slot{}, err
	}
	cacheFrom := skip
	for i, e := range p[skip:] {
		i += skip
		if err := t.explodeNode(cur.node); err != nil {
			return slot{}, err
		}
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			return slot{}, errNotFound
		}
		if e.Kind == ident.Mini || i+1 < len(p) {
			if err := t.explodeNode(next); err != nil {
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
	t.cacheWalkFrom(p, cur, cacheFrom)
	return cur, nil
}

// materialize walks identifier p, creating any missing nodes and mini-nodes
// along the way. Intermediate minis are created dead (they are placeholders
// for concurrently discarded ancestors, Section 3.3.1: replay "must
// re-create empty nodes to replace them"). The final mini is returned
// as-is; the caller decides its atom and liveness.
func (t *Tree) materialize(p ident.Path) (slot, error) {
	cur, depth := t.resumeSlot(Slot{}, p)
	skip := depth
	if err := p.ValidateFrom(depth); err != nil {
		return slot{}, err
	}
	if err := t.room(len(p), len(p)); err != nil {
		return slot{}, err
	}
	for _, e := range p[depth:] {
		if err := t.explodeNode(cur.node); err != nil {
			return slot{}, err
		}
		depth++
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			next = t.attachEmpty(cur, e.Bit, depth)
		} else if err := t.explodeNode(next); err != nil {
			return slot{}, err
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		cur = slot{node: next, mini: t.placeholderMini(next, e.Dis)}
	}
	t.cacheWalkFrom(p, cur, skip)
	return cur, nil
}

// attachEmpty creates an empty node in slot s on side bit, at the given
// depth, and counts it in: one more node, one more reusable slot.
func (t *Tree) attachEmpty(s slot, bit uint8, depth int) nodeH {
	h := t.newNode(s, bit)
	t.kids(s)[bit] = h
	t.bubble(h, 0, +1)
	if depth > t.height {
		t.height = depth
	}
	return h
}

// placeholderMini returns the mini of node h with disambiguator d, creating
// it dead (and counted as a tombstone) if the node has none.
func (t *Tree) placeholderMini(h nodeH, d ident.Dis) miniH {
	n := t.node(h)
	if m := t.findMini(n, d); m != 0 {
		return m
	}
	dEmpty := 0
	if n.first == 0 {
		dEmpty = -1 // the node stops being a free slot
	}
	m := t.insertMini(n, d)
	t.bubble(h, 0, dEmpty)
	return m
}

// explodeNode converts node h, if it is a flattened region, back into
// canonical tree form (Algorithm 2's explode): a complete binary subtree
// with the atoms assigned in infix order carrying the canonical
// disambiguator, so their identifiers are pure bitstrings below the region
// root.
func (t *Tree) explodeNode(h nodeH) error {
	if !t.node(h).flat {
		return nil
	}
	return t.explode(h)
}

func (t *Tree) explode(h nodeH) error {
	n, atoms := t.node(h), t.flats[h]
	// The canonical subtree holds one mini per atom, and a node per atom
	// plus at most one atom-less node per level on the path to the last atom.
	if err := t.room(len(atoms)+64, len(atoms)); err != nil {
		return fmt.Errorf("doctree: explode: %w", err)
	}
	delete(t.flats, h)
	n.flat = false
	if len(atoms) == 0 {
		if h == rootH {
			n.lastMod = t.rev // the root is never a free slot
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
		for capacityBelowRoot(depth) < len(atoms) {
			depth++
		}
		nLeft := min(len(atoms), subtreeCapacity(depth))
		n.kids[0] = t.buildCanonical(slot{node: h}, 0, atoms[:nLeft], depth)
		n.kids[1] = t.buildCanonical(slot{node: h}, 1, atoms[nLeft:], depth)
		l, r := t.node(n.kids[0]), t.node(n.kids[1])
		t.bubble(h, 0, int(l.emptyN+r.emptyN))
		if depth > t.height {
			t.height = depth
		}
		return nil
	}
	// Non-root region: the region root node itself holds the appropriate
	// infix atom, exactly as Algorithm 2 assigns identifiers.
	depth := 1
	for subtreeCapacity(depth) < len(atoms) {
		depth++
	}
	t.fillCanonical(h, atoms, depth)
	t.bubble(n.parent, 0, int(n.emptyN))
	n.lastMod = t.rev
	if d := t.depth(h) + depth - 1; d > t.height {
		t.height = d
	}
	return nil
}

// subtreeCapacity returns the atom capacity of a complete subtree of the
// given depth (levels), rooted at a node that can hold an atom: 2^depth - 1.
func subtreeCapacity(depth int) int {
	if depth >= 62 {
		return 1<<62 - 1
	}
	return 1<<depth - 1
}

// capacityBelowRoot returns the capacity of two complete subtrees of the
// given depth hanging under the atom-less root: 2^(depth+1) - 2.
func capacityBelowRoot(depth int) int {
	return 2 * subtreeCapacity(depth)
}

// fillCanonical populates existing node h as the root of a canonical
// complete subtree of the given depth holding atoms in infix order. The node
// must have no minis or children. It sets the node's subtree counts but does
// not touch ancestors.
func (t *Tree) fillCanonical(h nodeH, atoms []string, depth int) {
	n := t.node(h)
	nLeft := min(len(atoms), subtreeCapacity(depth-1))
	rest := atoms[nLeft:]
	n.kids[0] = t.buildCanonical(slot{node: h}, 0, atoms[:nLeft], depth-1)
	if len(rest) > 0 {
		t.mini(t.insertMini(n, ident.Canonical)).atom = t.atoms.put(rest[0])
		rest = rest[1:]
	}
	n.kids[1] = t.buildCanonical(slot{node: h}, 1, rest, depth-1)
	l, r := t.node(n.kids[0]), t.node(n.kids[1])
	n.live = uint32(len(atoms))
	n.emptyN = l.emptyN + r.emptyN
	if n.empty() {
		n.emptyN++
	}
}

// buildCanonical allocates the canonical complete subtree for atoms (in
// infix order) as the bit-child of slot s, returning the new node, or 0 for
// no atoms.
func (t *Tree) buildCanonical(s slot, bit uint8, atoms []string, depth int) nodeH {
	if len(atoms) == 0 {
		return 0
	}
	h := t.newNode(s, bit)
	t.fillCanonical(h, atoms, depth)
	return h
}

// Flatten replaces the subtree rooted at the node designated by path with a
// flat atom array holding its live content (Algorithm 2's flatten): all
// tombstones and identifier metadata in the region are discarded, and the
// region's node, mini and atom records go back to the slabs' free lists — or,
// when the region is the whole document, the slabs are reset and every
// chunk is dropped. The path must designate a major node: the empty path
// (whole document) or a structural path ending in a Major element; an atom
// identifier's node is addressed by its StripLastDis form.
//
// Flatten is a structural clean-up, not a CRDT operation: callers must
// establish that no concurrent edits target the region (the paper's
// commitment protocol, internal/transport/flatten.go).
func (t *Tree) Flatten(path ident.Path) error {
	h, err := t.walkNode(path)
	if err != nil {
		return err
	}
	t.cacheDrop()
	n := t.node(h)
	atoms := make([]string, 0, n.live)
	t.collectLive(h, &atoms)
	if h == rootH {
		// A fresh tree: every chunk goes back to the collector at once.
		*t = Tree{limit: t.limit, rev: t.rev, flats: map[nodeH][]string{}}
		t.nodes.alloc() // rootH again
		n = t.node(rootH)
		n.live = uint32(len(atoms))
	} else {
		removedEmpty := int(n.emptyN)
		t.releaseBelow(h)
		n.emptyN = 0
		t.bubble(n.parent, 0, -removedEmpty)
		t.height = t.maxDepth(rootH, 0)
	}
	n.flat, t.flats[h] = true, atoms
	n.lastMod = t.rev
	return nil
}

// FlattenAll flattens the entire document to a plain array: the paper's
// best case, "a compacted Treedoc reduces to a sequential array, with zero
// overhead".
func (t *Tree) FlattenAll() error { return t.Flatten(ident.Path{}) }

// releaseBelow detaches everything under h — children, minis and their
// children, atoms, a flat array — and returns the records to the free
// lists. h itself stays.
func (t *Tree) releaseBelow(h nodeH) {
	n := t.node(h)
	if n.flat {
		delete(t.flats, h)
	}
	t.releaseSubtree(n.kids[0])
	t.releaseSubtree(n.kids[1])
	for mh := n.first; mh != 0; {
		m := t.mini(mh)
		next := m.next
		t.releaseSubtree(m.kids[0])
		t.releaseSubtree(m.kids[1])
		if m.atom != 0 {
			t.atoms.drop(m.atom)
		}
		t.minis.release(uint32(mh))
		mh = next
	}
	n.kids[0], n.kids[1], n.first = 0, 0, 0
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
	cur := slot{node: rootH}
	for i, e := range p {
		if err := t.explodeNode(cur.node); err != nil {
			return 0, err
		}
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			return 0, errNotFound
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		if err := t.explodeNode(next); err != nil {
			return 0, err
		}
		m := t.findMini(t.node(next), e.Dis)
		if m == 0 {
			return 0, errNotFound
		}
		if i == len(p)-1 {
			return 0, fmt.Errorf("doctree: path %v designates a mini-node, not a major node", p)
		}
		cur = slot{node: next, mini: m}
	}
	return cur.node, nil
}

// collectLive appends the live atoms of h's subtree in infix order.
func (t *Tree) collectLive(h nodeH, out *[]string) {
	if h == 0 {
		return
	}
	n := t.node(h)
	if n.flat {
		*out = append(*out, t.flats[h]...)
		return
	}
	t.collectLive(n.kids[0], out)
	for mh := n.first; mh != 0; {
		m := t.mini(mh)
		t.collectLive(m.kids[0], out)
		if m.atom != 0 {
			*out = append(*out, *t.atoms.at(m.atom))
		}
		t.collectLive(m.kids[1], out)
		mh = m.next
	}
	t.collectLive(n.kids[1], out)
}

// maxDepth returns the depth of the deepest node under h, itself at depth d
// (d-1 for no node): the height refresh after a structural clean-up removed
// nodes.
func (t *Tree) maxDepth(h nodeH, d int) int {
	if h == 0 {
		return d - 1
	}
	n := t.node(h)
	best := max(d, t.maxDepth(n.kids[0], d+1), t.maxDepth(n.kids[1], d+1))
	for mh := n.first; mh != 0; {
		m := t.mini(mh)
		best = max(best, t.maxDepth(m.kids[0], d+1), t.maxDepth(m.kids[1], d+1))
		mh = m.next
	}
	return best
}
