package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// FreeMiniBetween searches for the first empty node, in infix order, whose
// mini position lies strictly between identifiers p and f (nil bounds mean
// document start/end). It returns the identifier a new mini with
// disambiguator d would take there, or nil if no reusable slot exists.
//
// Empty nodes arise from balanced growth (Section 4.1 reserves a grown
// subtree whose positions are consumed by subsequent inserts: "the
// following atoms would consecutively use the PosIDs for the empty nodes in
// the sub-tree") and from UDIS discarding. The search prunes subtrees whose
// identifier region lies entirely outside (p, f), carries its path
// incrementally (no per-node path reconstruction), and bounds its node
// visits so a single allocation never degrades to a whole-tree scan: a
// reusable slot beyond the budget is simply treated as absent and the
// caller falls back to fresh allocation.
func (t *Tree) FreeMiniBetween(p, f ident.Path, d ident.Dis) ident.Path {
	s := &slotSearch{t: t, p: p, f: f, budget: 16*t.height + 64}
	cap := t.height + 4
	if cap > 64 {
		cap = 64 // deep trees grow the prefix on demand
	}
	s.prefix = make(ident.Path, 0, cap)
	if s.walk(rootH) == 0 {
		return nil
	}
	id := s.prefix.Clone()
	id[len(id)-1] = ident.M(id[len(id)-1].Bit, d)
	return id
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

// walk searches n's subtree in infix order, returning the first empty node
// whose mini position lies strictly between the bounds.
func (s *slotSearch) walk(h nodeH) nodeH {
	n := s.t.node(h)
	if n.flat != 0 || n.emptyN == 0 || s.budget <= 0 {
		return 0 // a nil child reads emptyN == 0
	}
	s.budget--
	// Prune subtrees entirely outside the open interval.
	if s.p != nil && ident.RegionCompare(s.p, s.prefix) > 0 {
		return 0 // everything in n's region sorts <= p
	}
	if s.f != nil && ident.RegionCompare(s.f, s.prefix) < 0 {
		return 0 // everything in n's region sorts >= f
	}
	if got := s.into(n.kids[0], ident.J(0)); got != 0 {
		return got
	}
	if h != rootH && n.empty() {
		// The would-be mini position: the node's identifier with a mini
		// selection. Disambiguators only order minis within one node and n
		// has none, so any disambiguator gives the same betweenness.
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, ident.Canonical)
		ok := ident.Between(s.p, s.prefix, s.f)
		s.prefix[last] = saved
		if ok {
			return h
		}
	}
	// The root holds no minis, so prefix is non-empty inside the loop.
	for mh := n.first; mh != 0; {
		m := s.t.mini(mh)
		// Descend through the mini: the entry element gains its dis.
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis())
		if got := s.into(m.kids[0], ident.J(0)); got != 0 {
			return got
		}
		if got := s.into(m.kids[1], ident.J(1)); got != 0 {
			return got
		}
		s.prefix[last] = saved
		mh = m.next
	}
	return s.into(n.kids[1], ident.J(1))
}

// into pushes the child element, walks the child, and pops on failure. On
// success the prefix is left pointing at the found node.
func (s *slotSearch) into(h nodeH, e ident.Elem) nodeH {
	s.prefix = append(s.prefix, e)
	if got := s.walk(h); got != 0 {
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
	if levels <= 0 || t.node(h).flat != 0 {
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
