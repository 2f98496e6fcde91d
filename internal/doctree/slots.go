package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// FreeSlotAfter looks for a reusable identifier slot after p, which lies at
// at (p nil and the zero Slot: the document start): the first empty node in
// infix order before the next live atom. It appends to dst the identifier
// a new mini with disambiguator d would take there and returns it with the
// walk position of its last element; or nil, if a live atom or the
// document end comes first. Empty nodes come from balanced growth (see
// ReserveFrom) and UDIS discards. In an insertion gap the next live atom is
// the right neighbour f, so the slot is the first one strictly between p
// and f, infix order being identifier order.
//
// The scan compares no identifiers. It resumes p's node after p (in a run,
// its last member if the run goes on after p) and climbs, resuming each
// ancestor after the slot it came up from, up to a live atom, an empty
// ancestor or a subtree with a live atom or its hasEmpty bit set. That subtree holds the answer: no slot if it holds no
// empty node (a flattened region never does), else the first of its
// empty nodes and live atoms, reached by a descent that never backtracks
// and builds the reserved nodes it enters (see child). A tree without room
// for those has no slot to offer.
//
//treedoc:noalloc
func (t *Tree) FreeSlotAfter(dst, p ident.Path, at Slot, d ident.Dis) (ident.Path, Slot) {
	base, down := len(dst), at.at.node == 0
	// Ahead in node h, at depth k: mini ms from stage on (0 its left
	// subtree, 1 its atom, 2 its right subtree, 3 none of it), the minis
	// after it, h's right subtree. With no mini, stage 0 is h's left
	// subtree, 1 its own slot, each followed by the rest; 3 is nothing.
	h, k, ms, stage := at.at.node, at.depth, at.at.mini, 2
	if down {
		h, stage = rootH, 0 // the document start: all of it lies ahead
	} else if ms == soloMini {
		ms = 0 // a solo has no children: ahead is the node's right subtree
	} else if at.run { // p is member j of the run r below at, which may go on after p
		r := t.kids(at.at)[p[k].Bit]
		if n, j := t.node(r), len(p)-k-1; j+1 < n.runLen() && n.side(j+1) == 0 {
			stage = 1 + 2*int(n.bit())
		} else { // stage 2 at r's last member, 0 above it
			h, k, ms, stage = r, k+n.runLen(), 0, 2*((j+1)/n.runLen())
		}
	}
	if t.room(2*t.height, 0, 0) != nil {
		return nil, Slot{}
	}
	for {
		n := t.node(h)
		next, e := nodeH(0), ident.J(n.bit())
		if ms == 0 && stage == 0 && (n.reserve != 0 || t.occupied(n.kids[0])) {
			next = t.child(slot{node: h}, 0)
		} else if ms == 0 && stage <= 1 {
			if h != rootH && n.empty() {
				if !down {
					dst = append(dst, p[:k-1]...)
				}
				return append(dst, ident.M(n.bit(), d)), Slot{at: t.hangsFrom(h, n), depth: len(dst) - base}
			}
			if n.liveAtom() != 0 {
				return nil, Slot{} // the node's live solo comes first
			}
			ms, stage = n.minis(), 0
		}
		for ; next == 0 && ms != 0; ms, stage = t.mini(ms).next, 0 {
			m := t.mini(ms)
			kids := t.miniKids(ms, m)
			switch {
			case stage == 0 && t.occupied(kids[0]):
				next, e = kids[0], ident.M(n.bit(), t.dis(m))
			case stage <= 1 && m.atom != 0:
				return nil, Slot{} // the next live atom comes first
			case stage <= 2 && t.occupied(kids[1]):
				next, e = kids[1], ident.M(n.bit(), t.dis(m))
			}
		}
		if next == 0 && stage < 3 && (n.reserve != 0 || t.occupied(n.kids[1])) {
			next = t.child(slot{node: h}, 1)
		}
		if next == 0 {
			// h's subtree is passed (a subtree descended into holds the
			// answer): resume its parent after the slot h hangs from.
			if n.parent == 0 {
				return nil, Slot{} // the document end
			}
			up := t.hangsFrom(h, n)
			h, k, ms, stage = up.node, k-n.runLen(), up.mini, 1+2*int(n.bit())
			continue
		}
		if !t.node(next).hasEmpty() {
			return nil, Slot{} // the next live atom is in there, and no slot
		}
		if !down {
			dst, down = append(dst, p[:max(k-n.runLen(), 0)]...), true
		}
		if h != rootH {
			dst = n.appendRun(append(dst, e))
		}
		h, k, ms, stage = next, k+t.node(next).runLen(), 0, 0
	}
}

// occupied reports whether h's subtree holds a live atom or an empty node
// (a nil child reads as neither).
func (t *Tree) occupied(h nodeH) bool {
	n := t.node(h)
	return n.live != 0 || n.hasEmpty()
}

// ReserveFrom implements the balanced growth of Section 4.1: "grow the
// height h of the tree by ⌈log2(h)⌉+1… Thereafter, new PosIDs would be
// generated by using empty position in the tree of identifiers" (Figure 5's
// empty nodes). The node the structural path designates, created if need
// be, becomes the root of a complete subtree of the given levels, marked in
// the hasEmpty bits by one climb: the nodes it lacks are a reserve count on
// the deepest existing ones, built as walks enter them (see child). from is a
// slot on path's route, as for InsertFrom; the zero Slot resumes from the
// walk cache.
func (t *Tree) ReserveFrom(from Slot, path ident.Path, levels int) error {
	if len(path) == 0 {
		return fmt.Errorf("doctree: reserve needs a structural path, got %v", path)
	}
	if err := path.ValidateStructural(); err != nil {
		return fmt.Errorf("doctree: reserve %v: %w", path, err)
	}
	if levels > 31 {
		return fmt.Errorf("doctree: reserve %d levels: %w", levels, ErrFull)
	}
	// The slabs must have room for every node the subtree stands for, the
	// tree's other reserved ones counted too: unbuilt, they hold no record.
	if err := t.room(len(path)+1<<max(levels, 0)+int(t.reserved), len(path), 0); err != nil {
		return fmt.Errorf("doctree: reserve %v: %w", path, err)
	}
	last := len(path) - 1
	s, made, err := t.materialize(from, path[:last])
	if err == nil {
		err = t.explode(s.node)
	}
	if err != nil {
		return err
	}
	t.settle(s.node, made, 0)
	if added := t.reserve(s, path[last].Bit, len(path), max(levels, 1)); added != 0 {
		t.bubble(s.node, 0, int(added))
	}
	return nil
}

// reserve makes the child of slot s on side bit, at the given depth, the
// root of a complete subtree of the given levels, creating it if need be,
// and returns the empty nodes that adds. Below the slot the hasEmpty bits
// are set; the slot's node and its ancestors are the caller's to mark.
func (t *Tree) reserve(s slot, bit uint8, depth, levels int) (added uint32) {
	h := t.child(s, bit)
	if h == 0 {
		h, added = t.newNode(s, bit), 1
		t.setKid(s, bit, h)
		t.setStamp(h, t.rev)
		t.height = max(t.height, depth)
	} else if levels > 1 && t.node(h).run() {
		t.cut(h, 0) // its top member gains a child
	}
	switch n := t.node(h); {
	case n.flat() || levels == 1:
	case n.kids == [2]nodeH{}:
		if r := uint8(levels - 1); r > n.reserve {
			added += reservedNodes(r) - reservedNodes(n.reserve)
			t.reserved += reservedNodes(r) - reservedNodes(n.reserve)
			n.reserve = r
			t.setStamp(h, t.rev)
			t.height = max(t.height, depth+int(r))
		}
	default:
		for b := range n.kids {
			added += t.reserve(slot{node: h}, uint8(b), depth+1, levels-1)
		}
	}
	if added != 0 {
		t.node(h).flags |= hasEmptyF
	}
	return added
}
