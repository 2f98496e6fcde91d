package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// slot is a walk position: either the major slot of a node or one of its
// mini-nodes. The next path element departs from the slot's children.
type slot struct {
	node *Node
	mini *Mini // nil = major slot
}

func (s slot) child(bit uint8) *Node {
	if s.mini != nil {
		return s.mini.child(bit)
	}
	return s.node.child(bit)
}

func (s slot) setChild(bit uint8, c *Node) {
	if s.mini != nil {
		s.mini.setChild(bit, c)
	} else {
		s.node.setChild(bit, c)
	}
}

// walkMini locates the mini-node with identifier p, without materialising
// anything. It returns errNotFound if any step is missing. Walking into a
// flattened region explodes it first (Section 4.2: "array storage is
// converted to tree storage when necessary, e.g., when applying a path to
// an array").
func (t *Tree) walkMini(p ident.Path) (*Mini, error) {
	cur, skip := t.resumeSlot(p)
	// The resumed prefix matched a cached, already-validated identifier
	// elementwise, so only the remaining elements need checking.
	if err := p.ValidateFrom(skip); err != nil {
		return nil, err
	}
	cacheFrom := skip
	for i, e := range p[skip:] {
		i += skip
		if cur.node.flat != nil {
			t.explodeNode(cur.node)
		}
		next := cur.child(e.Bit)
		if next == nil {
			return nil, errNotFound
		}
		if next.flat != nil && (e.Kind == ident.Mini || i+1 < len(p)) {
			t.explodeNode(next)
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		m := next.findMini(e.Dis)
		if m == nil {
			return nil, errNotFound
		}
		cur = slot{node: next, mini: m}
	}
	t.cacheWalkFrom(p, cur.mini, cacheFrom)
	return cur.mini, nil
}

// materialize walks identifier p, creating any missing nodes and mini-nodes
// along the way. Intermediate minis are created dead (they are placeholders
// for concurrently discarded ancestors, Section 3.3.1: replay "must
// re-create empty nodes to replace them"). The final mini is returned
// as-is; the caller decides its atom and liveness.
func (t *Tree) materialize(p ident.Path) (*Mini, error) {
	cur, depth := t.resumeSlot(p)
	skip := depth
	if err := p.ValidateFrom(depth); err != nil {
		return nil, err
	}
	for _, e := range p[depth:] {
		if cur.node.flat != nil {
			t.explodeNode(cur.node)
		}
		depth++
		next := cur.child(e.Bit)
		if next == nil {
			next = t.newNode(cur.node, cur.mini, e.Bit)
			cur.setChild(e.Bit, next)
			t.bubbleCounts(next, 0, 1)
			bubbleEmpty(next, +1)
			if depth > t.height {
				t.height = depth
			}
		} else if next.flat != nil {
			t.explodeNode(next)
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		m := next.findMini(e.Dis)
		if m == nil {
			if len(next.minis) == 0 {
				bubbleEmpty(next, -1) // the node stops being a free slot
			}
			m = t.insertMini(next, e.Dis)
			m.dead = true // placeholder until the caller revives it
			t.bubble(next, 0, 0, +1)
		}
		cur = slot{node: next, mini: m}
	}
	t.cacheWalkFrom(p, cur.mini, skip)
	return cur.mini, nil
}

// explodeNode converts a flattened region back into canonical tree form
// (Algorithm 2's explode): a complete binary subtree with the atoms assigned
// in infix order carrying the canonical disambiguator, so their identifiers
// are pure bitstrings below the region root.
func (t *Tree) explodeNode(n *Node) {
	atoms := n.flat
	n.flat = nil
	if len(atoms) == 0 {
		if n.parent == nil {
			t.bubbleCounts(n, 0, 0) // stamp lastMod; the root is never counted
			return
		}
		// A flattened region counts no nodes; the empty node it turns back
		// into counts itself, and is a reusable slot.
		t.bubbleCounts(n, 0, +1)
		bubbleEmpty(n, +1)
		return
	}
	// The region's live count stays the same; nodes get rebuilt below.
	if n.parent == nil {
		// The root holds no atoms: fill its two child subtrees, skipping the
		// root slot itself (DESIGN.md: rooted variant of Algorithm 2).
		depth := 0
		for capacityBelowRoot(depth) < len(atoms) {
			depth++
		}
		capLeft := subtreeCapacity(depth)
		nLeft := len(atoms)
		if nLeft > capLeft {
			nLeft = capLeft
		}
		n.left = buildCanonical(n, nil, 0, atoms[:nLeft], depth)
		n.right = buildCanonical(n, nil, 1, atoms[nLeft:], depth)
		dn, de := 0, 0
		if n.left != nil {
			dn += n.left.nodes
			de += n.left.emptyN
		}
		if n.right != nil {
			dn += n.right.nodes
			de += n.right.emptyN
		}
		t.bubbleCounts(n, 0, dn)
		bubbleEmpty(n, de)
		if d := n.depth() + depth; d > t.height {
			t.height = d
		}
		return
	}
	// Non-root region: the region root node itself holds the appropriate
	// infix atom, exactly as Algorithm 2 assigns identifiers.
	depth := 1
	for subtreeCapacity(depth) < len(atoms) {
		depth++
	}
	fillCanonical(n, atoms, depth)
	t.bubbleCounts(n.parent, 0, n.nodes)
	bubbleEmpty(n.parent, n.emptyN)
	n.lastMod = t.rev
	if d := n.depth() + depth - 1; d > t.height {
		t.height = d
	}
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

// fillCanonical populates existing node n as the root of a canonical
// complete subtree of the given depth holding atoms in infix order. n must
// have no minis or children. It sets n's subtree counts but does not touch
// ancestors.
func fillCanonical(n *Node, atoms []string, depth int) {
	capChild := subtreeCapacity(depth - 1)
	nLeft := len(atoms)
	if nLeft > capChild {
		nLeft = capChild
	}
	rest := atoms[nLeft:]
	n.live = len(atoms)
	n.nodes = 1
	n.dead = 0
	n.emptyN = 0
	if nLeft > 0 {
		n.left = buildCanonical(n, nil, 0, atoms[:nLeft], depth-1)
		n.nodes += n.left.nodes
		n.emptyN += n.left.emptyN
	}
	if len(rest) > 0 {
		m := n.insertMini(ident.Canonical)
		m.atom = rest[0]
		rest = rest[1:]
	}
	if len(rest) > 0 {
		n.right = buildCanonical(n, nil, 1, rest, depth-1)
		n.nodes += n.right.nodes
		n.emptyN += n.right.emptyN
	}
	if n.empty() {
		n.emptyN++
	}
}

// buildCanonical allocates the canonical complete subtree for atoms (in
// infix order) as the bit-child of parent/pmini, returning the new node.
func buildCanonical(parent *Node, pmini *Mini, bit uint8, atoms []string, depth int) *Node {
	if len(atoms) == 0 {
		return nil
	}
	n := &Node{parent: parent, pmini: pmini, bit: bit}
	fillCanonical(n, atoms, depth)
	return n
}

// Flatten replaces the subtree rooted at the node designated by path with a
// flat atom array holding its live content (Algorithm 2's flatten): all
// tombstones and identifier metadata in the region are discarded. The path
// must designate a major node: the empty path (whole document) or a
// structural path ending in a Major element; an atom identifier's node is
// addressed by its StripLastDis form.
//
// Flatten is a structural clean-up, not a CRDT operation: callers must
// establish that no concurrent edits target the region (internal/commit
// implements the paper's commitment protocol for this).
func (t *Tree) Flatten(path ident.Path) error {
	n, err := t.walkNode(path)
	if err != nil {
		return err
	}
	t.cacheDrop()
	atoms := make([]string, 0, n.live)
	collectLive(n, &atoms)
	removedNodes, removedDead, removedEmpty := n.nodes, n.dead, n.emptyN
	n.left, n.right, n.minis = nil, nil, nil
	n.flat = atoms
	n.nodes = 0
	n.dead = 0
	n.emptyN = 0
	t.bubble(n.parent, 0, -removedNodes, -removedDead)
	bubbleEmpty(n.parent, -removedEmpty)
	n.lastMod = t.rev
	t.recomputeHeight()
	return nil
}

// FlattenAll flattens the entire document to a plain array: the paper's
// best case, "a compacted Treedoc reduces to a sequential array, with zero
// overhead".
func (t *Tree) FlattenAll() error { return t.Flatten(ident.Path{}) }

// walkNode locates the major node designated by a structural path (empty =
// root, otherwise every element including the last is followed; a final
// Major element selects the node itself).
func (t *Tree) walkNode(p ident.Path) (*Node, error) {
	cur := slot{node: t.root}
	for i, e := range p {
		if cur.node.flat != nil {
			t.explodeNode(cur.node)
		}
		next := cur.child(e.Bit)
		if next == nil {
			return nil, errNotFound
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		if next.flat != nil {
			t.explodeNode(next)
		}
		m := next.findMini(e.Dis)
		if m == nil {
			return nil, errNotFound
		}
		if i == len(p)-1 {
			return nil, fmt.Errorf("doctree: path %v designates a mini-node, not a major node", p)
		}
		cur = slot{node: next, mini: m}
	}
	return cur.node, nil
}

// collectLive appends the live atoms of n's subtree in infix order.
func collectLive(n *Node, out *[]string) {
	if n == nil {
		return
	}
	if n.flat != nil {
		*out = append(*out, n.flat...)
		return
	}
	collectLive(n.left, out)
	for _, m := range n.minis {
		collectLive(m.left, out)
		if !m.dead {
			*out = append(*out, m.atom)
		}
		collectLive(m.right, out)
	}
	collectLive(n.right, out)
}

// recomputeHeight walks the tree to refresh the cached height after a
// structural clean-up removed nodes.
func (t *Tree) recomputeHeight() {
	t.height = maxDepth(t.root, 0)
}

func maxDepth(n *Node, d int) int {
	if n == nil {
		return d - 1
	}
	best := d
	if h := maxDepth(n.left, d+1); h > best {
		best = h
	}
	if h := maxDepth(n.right, d+1); h > best {
		best = h
	}
	for _, m := range n.minis {
		if h := maxDepth(m.left, d+1); h > best {
			best = h
		}
		if h := maxDepth(m.right, d+1); h > best {
			best = h
		}
	}
	return best
}
