package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// FreeMiniBetween searches for the first empty node, in infix order, whose
// mini position lies strictly between identifiers p and f (nil bounds mean
// document start/end). It returns the identifier a new mini with
// disambiguator d would take there, appended to dst (the caller's scratch),
// or nil if no reusable slot exists.
//
// Empty nodes arise from balanced growth (Section 4.1 reserves a grown
// subtree whose positions are consumed by subsequent inserts: "the
// following atoms would consecutively use the PosIDs for the empty nodes in
// the sub-tree") and from UDIS discarding. The search prunes subtrees whose
// identifier region lies entirely outside (p, f) and bounds its node visits
// so a single allocation never degrades to a whole-tree scan: a reusable
// slot beyond the budget is simply treated as absent and the caller falls
// back to fresh allocation. A visit costs O(1) whatever the depth: the walk
// builds its path in the tree's scratch buffer and carries each bound's
// relation to the current node down with it (see slotSearch.walk).
//
//treedoc:noalloc
func (t *Tree) FreeMiniBetween(dst, p, f ident.Path, d ident.Dis) ident.Path {
	s := slotSearch{t: t, p: p, f: f, prefix: t.slotPath[:0], budget: 16*t.height + 64}
	found := s.walk(rootH, p != nil, f != nil)
	t.slotPath = s.prefix[:0] // keep whatever the walk grew
	if found == 0 {
		return nil
	}
	dst = append(dst, s.prefix...) //treedoc:escape growing the caller's scratch
	dst[len(dst)-1] = ident.M(dst[len(dst)-1].Bit, d)
	return dst
}

// slotSearch is the in-order free-slot walk. prefix always holds the
// structural path of the node being visited (empty at the root); when the
// walk succeeds it holds the found node's path.
type slotSearch struct {
	t      *Tree
	p, f   ident.Path
	prefix ident.Path
	budget int
}

// walk searches h's subtree in infix order, returning the first empty node
// whose mini position lies strictly between the bounds.
//
// lo and hi carry each bound's relation to the subtree being entered down
// the recursion. True: the bound may still pass through it, and its
// elements up to the parent's match prefix, so the region test starts at
// the last two. False: the bound is absent, or the subtree lies wholly on
// its admissible side (after p, before f) — as does everything below it,
// regions being nested intervals — and nothing below compares against it
// again. A bound only ever moves from through to outside on the way down.
//
//treedoc:noalloc
func (s *slotSearch) walk(h nodeH, lo, hi bool) nodeH {
	n := s.t.node(h)
	if n.flat || n.emptyN == 0 || s.budget <= 0 {
		return 0 // a nil child reads emptyN == 0
	}
	s.budget--
	last := len(s.prefix) - 1 // -1 at the root, whose region is everything
	// Prune subtrees entirely outside the open interval.
	if lo {
		c := ident.RegionCompareFrom(s.p, s.prefix, max(last-1, 0))
		if c > 0 {
			return 0 // everything in n's region sorts <= p
		}
		lo = c == 0 // and then p[:last] matches prefix[:last]
	}
	if hi {
		c := ident.RegionCompareFrom(s.f, s.prefix, max(last-1, 0))
		if c < 0 {
			return 0 // everything in n's region sorts >= f
		}
		hi = c == 0
	}
	if got := s.into(n.kids[0], ident.J(0), lo, hi); got != 0 {
		return got
	}
	if h != rootH && n.empty() {
		// The would-be mini position: the node's identifier with a mini
		// selection. Disambiguators only order minis within one node and n
		// has none, so any disambiguator gives the same betweenness. A
		// bound still through n agrees with the candidate up to last.
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, ident.Canonical)
		ok := (!lo || ident.CompareFrom(s.p, s.prefix, last) < 0) &&
			(!hi || ident.CompareFrom(s.prefix, s.f, last) < 0)
		s.prefix[last] = saved
		if ok {
			return h
		}
	}
	// The root holds no minis, so prefix is non-empty inside the loop.
	for mh := n.first; mh != 0; {
		m := s.t.mini(mh)
		// Descend through the mini: the entry element gains its dis.
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis())
		if got := s.into(m.kids[0], ident.J(0), lo, hi); got != 0 {
			return got
		}
		if got := s.into(m.kids[1], ident.J(1), lo, hi); got != 0 {
			return got
		}
		s.prefix[last] = saved
		mh = m.next
	}
	return s.into(n.kids[1], ident.J(1), lo, hi)
}

// into pushes the child element, walks the child, and pops on failure. On
// success the prefix is left pointing at the found node.
//
//treedoc:noalloc
func (s *slotSearch) into(h nodeH, e ident.Elem, lo, hi bool) nodeH {
	if s.t.node(h).emptyN == 0 {
		return 0 // nothing to find below, or a nil child, which reads 0
	}
	s.prefix = append(s.prefix, e)
	if got := s.walk(h, lo, hi); got != 0 {
		return got
	}
	s.prefix = s.prefix[:len(s.prefix)-1]
	return 0
}

// Reserve materialises the complete binary subtree of the given number of
// levels rooted at the node designated by the structural path (creating the
// node itself if needed), implementing the balanced growth of Section 4.1:
// "grow the height h of the tree by ⌈log2(h)⌉+1… Thereafter, new PosIDs
// would be generated by using empty position in the tree of identifiers"
// (the empty nodes of Figure 5). The reserved slots are found by
// FreeMiniBetween as subsequent inserts arrive.
func (t *Tree) Reserve(path ident.Path, levels int) error {
	if len(path) == 0 {
		return fmt.Errorf("doctree: reserve needs a structural path, got %v", path)
	}
	if err := path.ValidateStructural(); err != nil {
		return fmt.Errorf("doctree: reserve %v: %w", path, err)
	}
	if levels > 31 {
		return fmt.Errorf("doctree: reserve %d levels: %w", levels, ErrFull)
	}
	if err := t.room(len(path)+1<<max(levels, 0), len(path)); err != nil {
		return fmt.Errorf("doctree: reserve %v: %w", path, err)
	}
	cur := slot{node: rootH}
	depth := 0
	for _, e := range path {
		if err := t.explodeNode(cur.node); err != nil {
			return err
		}
		depth++
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			next = t.attachEmpty(cur, e.Bit, depth)
		} else if e.Kind == ident.Mini {
			if err := t.explodeNode(next); err != nil {
				return err
			}
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		cur = slot{node: next, mini: t.placeholderMini(next, e.Dis)}
	}
	t.reserveBelow(cur.node, depth, levels-1)
	return nil
}

// reserveBelow materialises the complete major-child subtree of h down to
// the given remaining levels.
func (t *Tree) reserveBelow(h nodeH, depth, levels int) {
	if levels <= 0 || t.node(h).flat {
		return
	}
	for bit := uint8(0); bit <= 1; bit++ {
		c := t.node(h).kids[bit]
		if c == 0 {
			c = t.attachEmpty(slot{node: h}, bit, depth+1)
		}
		t.reserveBelow(c, depth+1, levels-1)
	}
}
