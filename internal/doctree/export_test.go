package doctree

import "github.com/treedoc/treedoc/internal/ident"

// FreeMiniBetweenOracle lets the external benchmarks run the root-down
// oracle (slots_oracle_test.go) beside the scan.
func (t *Tree) FreeMiniBetweenOracle(p, f ident.Path, d ident.Dis) (ident.Path, int) {
	return t.freeMiniBetweenOracle(p, f, d)
}

// MaterializeReserved builds every reserved node, leaving no reserve count:
// the tree as it would stand had every reservation been built in full.
func (t *Tree) MaterializeReserved() {
	for h := uint32(1); h <= t.nodes.n; h++ {
		t.buildReserved(nodeH(h))
	}
}

// Records returns the node records the tree holds.
func (t *Tree) Records() int { return int(t.nodes.used()) }

func (t *Tree) buildReserved(h nodeH) {
	if t.node(h).reserve != 0 {
		t.child(slot{node: h}, 0)
		for _, c := range t.node(h).kids {
			t.buildReserved(c)
		}
	}
}

// IndexOfID returns the current document index of the live atom with the
// given identifier: the inverse of IDAt, computed by a climb from the
// atom, which the tests hold the count-guided descents to.
func (t *Tree) IndexOfID(id ident.Path) (int, error) {
	s, err := t.walkMini(id)
	if err != nil {
		return 0, err
	}
	if t.mini(s.mini).atom == 0 {
		return 0, errNotFound
	}
	// The atom follows its mini's left subtree and whatever its node holds
	// before the mini; then climb: at each level, whatever the parent holds
	// to the left of the slot we hang from precedes us.
	n := t.node(s.node)
	idx := t.liveBefore(n, s.mini, 0) + t.node(t.mini(s.mini).kids[0]).live
	for n.parent != 0 {
		up := t.node(n.parent)
		if n.pmini != 0 {
			idx += t.liveBefore(up, n.pmini, n.bit)
		} else if n.bit == 1 {
			// Right child of the major node: everything else in up precedes.
			idx += up.live - n.live
		}
		n = up
	}
	return int(idx), nil
}

// liveBefore counts the live atoms of n that precede the bit-side child
// subtree of its mini mh: n's major-left subtree, every earlier mini's
// region, and for the right side the mini's own left subtree and atom.
func (t *Tree) liveBefore(n *node, mh miniH, bit uint8) uint32 {
	idx := t.node(n.kids[0]).live
	for h := n.first; h != mh; {
		m := t.mini(h)
		idx += t.miniLive(m)
		h = m.next
	}
	if m := t.mini(mh); bit == 1 {
		idx += t.node(m.kids[0]).live
		if m.atom != 0 {
			idx++
		}
	}
	return idx
}

// miniLive returns the live atoms in a mini's own region (its subtrees plus
// its atom).
func (t *Tree) miniLive(m *mini) uint32 {
	n := t.node(m.kids[0]).live + t.node(m.kids[1]).live
	if m.atom != 0 {
		n++
	}
	return n
}
