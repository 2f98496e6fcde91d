package doctree

import "github.com/treedoc/treedoc/internal/ident"

// FreeMiniBetweenOracle lets the external benchmarks run the root-down
// oracle (slots_oracle_test.go) beside the scan.
func (t *Tree) FreeMiniBetweenOracle(p, f ident.Path, d ident.Dis) (ident.Path, int) {
	return t.freeMiniBetweenOracle(p, f, d)
}

// Reserve is ReserveFrom resuming from the walk cache.
func (t *Tree) Reserve(path ident.Path, levels int) error {
	return t.ReserveFrom(Slot{}, path, levels)
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
	if *t.atomOf(s) == 0 {
		return 0, errNotFound
	}
	// The atom follows its mini's left subtree and whatever its node holds
	// before the mini; then climb: at each level, whatever the parent holds
	// to the left of the slot we hang from precedes us.
	h, n := s.node, t.node(s.node)
	idx := t.liveBefore(n, s.mini, 0) + t.node(t.kids(s)[0]).live
	for n.parent != 0 {
		up := t.hangsFrom(h, n)
		if upN := t.node(up.node); up.mini != 0 {
			idx += t.liveBefore(upN, up.mini, n.bit())
		} else if n.bit() == 1 {
			// Right child of the major node: everything else in up precedes.
			idx += upN.live - n.live
		}
		h, n = up.node, t.node(up.node)
	}
	return int(idx), nil
}

// liveBefore counts the live atoms of n that precede the bit-side child
// subtree of its mini mh: n's major-left subtree, every earlier mini's
// region, and for the right side the mini's own left subtree and atom.
func (t *Tree) liveBefore(n *node, mh miniH, bit uint8) uint32 {
	idx := t.node(n.kids[0]).live
	if mh == soloMini {
		return idx
	}
	for h := n.first; h != mh; {
		idx += t.miniLive(h)
		h = t.mini(h).next
	}
	if m := t.mini(mh); bit == 1 {
		idx += t.node(t.kids(slot{mini: mh})[0]).live
		if m.atom != 0 {
			idx++
		}
	}
	return idx
}

// miniLive returns the live atoms in a mini's own region (its subtrees plus
// its atom).
func (t *Tree) miniLive(mh miniH) uint32 {
	m := t.mini(mh)
	kids := t.kids(slot{mini: mh})
	n := t.node(kids[0]).live + t.node(kids[1]).live
	if m.atom != 0 {
		n++
	}
	return n
}

// MiniOf returns the handle of the mini id names and whether it is flagged
// with children; 0 and false if id names none, and 2³²−1 (soloMini) and
// false if it names a solo. It explodes nothing.
func (t *Tree) MiniOf(id ident.Path) (uint32, bool) {
	s, used := t.ExistsFrom(Slot{}, id)
	if !used || s.at.mini == 0 {
		return 0, false
	}
	return uint32(s.at.mini), s.at.mini != soloMini && t.mini(s.at.mini).hasKids
}

// MiniChildEntries returns the handles of the minis the mini-child table
// holds an entry for.
func (t *Tree) MiniChildEntries() map[uint32]bool {
	hs := make(map[uint32]bool, len(t.mkids))
	for mh := range t.mkids {
		hs[uint32(mh)] = true
	}
	return hs
}

// SetMiniChildEntry writes mini h's entry in the mini-child table as it is
// given, or deletes it for nil, and leaves the mini's flag alone: a
// hand-broken table for the tests that Check refuses one.
func (t *Tree) SetMiniChildEntry(h uint32, kids *[2]uint32) {
	if kids == nil {
		delete(t.mkids, miniH(h))
		return
	}
	if t.mkids == nil {
		t.mkids = map[miniH][2]nodeH{}
	}
	t.mkids[miniH(h)] = [2]nodeH{nodeH(kids[0]), nodeH(kids[1])}
}

// SetOnMini flags the node the structural path designates as hanging from
// a mini, or not, and nothing else.
func (t *Tree) SetOnMini(path ident.Path, on bool) {
	if s := routeSlot(t, path); s.node != 0 {
		n := t.node(s.node)
		if n.flags &^= onMiniF; on {
			n.flags |= onMiniF
		}
	}
}

// CacheWalk records a walk to id, which lies at at, in the walk cache.
func (t *Tree) CacheWalk(id ident.Path, at Slot) { t.cacheWalk(id, at.at) }

// MiniRecords returns the mini records the tree holds.
func (t *Tree) MiniRecords() int { return int(t.minis.used()) }

// Solos returns the solo minis the tree holds, live and dead: minis with
// no record.
func (t *Tree) Solos() (live, dead int) {
	for h := uint32(1); h <= t.nodes.n; h++ { // a free record is zero: no solo
		if n := t.nodes.at(h); n.solo() && n.atom != 0 {
			live++
		} else if n.solo() {
			dead++
		}
	}
	return live, dead
}

// BuildSolos builds every solo mini's record back: the tree as it would
// stand had every mini kept its record.
func (t *Tree) BuildSolos() {
	for h := uint32(1); h <= t.nodes.n; h++ {
		if t.nodes.at(h).solo() {
			t.unsolo(nodeH(h))
		}
	}
}

// routeNode returns the node the structural path designates.
func (t *Tree) routeNode(path ident.Path) *node {
	s := slot{node: rootH}
	for _, e := range path {
		if s = (slot{node: t.kids(s)[e.Bit]}); e.Kind == ident.Mini {
			s.mini = t.findMini(t.node(s.node), e.Dis)
		}
	}
	return t.node(s.node)
}

// SetSolo flags the node the structural path designates, which may be
// flat, as solo, holding atom handle a, and changes nothing else: a
// hand-broken solo for the tests that Check refuses one.
func (t *Tree) SetSolo(path ident.Path, a uint32) {
	n := t.routeNode(path)
	n.flags |= soloF
	n.atom = a
}

// AtomHandle returns the atom handle of the live atom id names.
func (t *Tree) AtomHandle(id ident.Path) uint32 {
	s, _ := t.walkMini(id)
	return *t.atomOf(s)
}

// FreeAtomHandle returns a handle on the atom store's free stack.
func (t *Tree) FreeAtomHandle() uint32 { return t.atoms.free[0] }

// SetHasEmpty sets or clears the hasEmpty bit of the node the structural
// path designates, and changes nothing else.
func (t *Tree) SetHasEmpty(path ident.Path, on bool) {
	n := t.routeNode(path)
	if n.flags &^= hasEmptyF; on {
		n.flags |= hasEmptyF
	}
}

// HasEmpty reports the hasEmpty bit of the node the structural path
// designates.
func (t *Tree) HasEmpty(path ident.Path) bool { return t.routeNode(path).hasEmpty() }
