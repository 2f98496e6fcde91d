package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// Content returns the document's live atoms in order. It does not explode
// flattened regions.
func (t *Tree) Content() []string {
	out := make([]string, 0, t.Len())
	t.collectLive(rootH, &out)
	return out
}

// AtomAt returns the i-th live atom (0-based) without exploding flattened
// regions.
func (t *Tree) AtomAt(i int) (string, error) {
	if i < 0 || i >= t.Len() {
		return "", fmt.Errorf("doctree: index %d out of range [0,%d)", i, t.Len())
	}
	s, flatIdx := t.locate(rootH, uint32(i))
	if s.mini != 0 {
		return *t.atoms.at(t.mini(s.mini).atom), nil
	}
	return t.flats[s.node][flatIdx], nil
}

// locate descends by live-atom counts to position i within h's subtree,
// returning either the slot of the mini-node holding it or the flat node and
// the offset into its array. A nil child reads as a zero count (slab.at), so
// the descent tests counts only.
func (t *Tree) locate(h nodeH, i uint32) (slot, uint32) {
	n := t.node(h)
descend:
	for {
		if n.flat {
			return slot{node: h}, i
		}
		l := t.node(n.kids[0])
		if i < l.live {
			h, n = n.kids[0], l
			continue
		}
		i -= l.live
		for mh := n.first; mh != 0; {
			m := t.mini(mh)
			l, r := t.node(m.kids[0]), t.node(m.kids[1])
			if i < l.live {
				h, n = m.kids[0], l
				continue descend
			}
			i -= l.live
			if m.atom != 0 {
				if i == 0 {
					return slot{node: h, mini: mh}, 0
				}
				i--
			}
			if i < r.live {
				h, n = m.kids[1], r
				continue descend
			}
			i -= r.live
			mh = m.next
		}
		h, n = n.kids[1], t.node(n.kids[1])
	}
}

// IDAt returns the position identifier of the i-th live atom; see AppendIDAt.
func (t *Tree) IDAt(i int) (ident.Path, error) {
	id, _, err := t.AppendIDAt(nil, i)
	return id, err
}

// AppendIDAt appends the position identifier of the i-th live atom to dst
// and returns where the atom lies. It is IDAt in append-to-dst form for
// callers that consult identifiers per edit (neighbour lookups), and it
// builds the identifier during the locate descent itself: the nodes the
// count-guided descent visits are exactly the identifier's chain, so the
// element for each node is emitted as the walk leaves it, with no separate
// path-building climb afterwards. Flattened regions on the way are
// exploded (applying a path to an array, Section 4.2).
func (t *Tree) AppendIDAt(dst ident.Path, i int) (ident.Path, Slot, error) {
	if i < 0 || i >= t.Len() {
		return dst, Slot{}, fmt.Errorf("doctree: index %d out of range [0,%d)", i, t.Len())
	}
	base := len(dst)
	dst, s, err := t.appendIDDown(rootH, i, dst)
	if err != nil {
		return dst, Slot{}, err
	}
	if base == 0 {
		// The identifier is well-formed by construction, so it may seed the
		// walk cache: the operation that consults an atom's identifier (a
		// delete, a neighbour probe) walks to this same mini next.
		t.cacheWalk(dst, s)
	}
	return dst, Slot{s, len(dst) - base}, nil
}

// appendIDDown locates the i-th live atom of h's subtree, appending the
// identifier elements of the descent to dst, and returns the extended path
// and the atom's slot. i must be within h's live count. Flattened regions on
// the way are exploded.
func (t *Tree) appendIDDown(h nodeH, at int, dst ident.Path) (ident.Path, slot, error) {
	i, n := uint32(at), t.node(h)
descend:
	for {
		if n.flat {
			if err := t.explode(h); err != nil {
				return dst, slot{}, err
			}
		}
		// Leaving n through a major slot emits a plain element, through a
		// mini its disambiguated one. The root contributes no element.
		l := t.node(n.kids[0])
		if i < l.live {
			if h != rootH {
				dst = append(dst, ident.J(n.bit))
			}
			h, n = n.kids[0], l
			continue
		}
		i -= l.live
		for mh := n.first; mh != 0; {
			m := t.mini(mh)
			l, r := t.node(m.kids[0]), t.node(m.kids[1])
			if i < l.live {
				dst = append(dst, ident.M(n.bit, m.dis()))
				h, n = m.kids[0], l
				continue descend
			}
			i -= l.live
			if m.atom != 0 {
				if i == 0 {
					return append(dst, ident.M(n.bit, m.dis())), slot{node: h, mini: mh}, nil
				}
				i--
			}
			if i < r.live {
				dst = append(dst, ident.M(n.bit, m.dis()))
				h, n = m.kids[1], r
				continue descend
			}
			i -= r.live
			mh = m.next
		}
		if h != rootH {
			dst = append(dst, ident.J(n.bit))
		}
		h, n = n.kids[1], t.node(n.kids[1])
	}
}

// AppendNeighborIDs appends the identifiers of the atoms at i-1 (to dstP)
// and i (to dstF) around insertion gap i, with 0 < i < Len, and returns
// where they lie. Adjacent atoms share their identifier prefix down to the
// node where their routes split, so the shared part is walked (and
// written) once instead of twice — the per-edit neighbour lookup is the
// hottest read path of a replica. The walk cache is left at the left
// neighbour: the identifier allocated for the gap extends it, so the
// insert that follows resumes deepest there.
func (t *Tree) AppendNeighborIDs(dstP, dstF ident.Path, i int) (p, f ident.Path, g Gap, err error) {
	if i <= 0 || i >= t.Len() {
		return dstP, dstF, g, fmt.Errorf("doctree: interior gap %d out of range (0,%d)", i, t.Len())
	}
	pBase := len(dstP)
	a := uint32(i - 1) // left target, relative to the current subtree; right = a+1
	h, n := rootH, t.node(rootH)
descend:
	for {
		if n.flat {
			if err := t.explode(h); err != nil {
				return dstP, dstF, g, err
			}
		}
		// Find the region holding the left target; descend only while the
		// right target lands in the same child subtree. rel tracks the
		// left target's offset within the regions scanned so far and is
		// committed to a only on descent, so a stays relative to n's whole
		// subtree when the routes split here.
		rel := a
		var next nodeH
		var nn *node
		var elem ident.Elem
		if l := t.node(n.kids[0]); rel+1 < l.live {
			next, nn, elem = n.kids[0], l, ident.J(n.bit)
		} else if rel < l.live {
			break descend
		} else {
			rel -= l.live
		}
		for mh := n.first; mh != 0 && next == 0; {
			m := t.mini(mh)
			l, r := t.node(m.kids[0]), t.node(m.kids[1])
			if rel+1 < l.live {
				next, nn, elem = m.kids[0], l, ident.M(n.bit, m.dis())
				break
			}
			if rel < l.live {
				break descend
			}
			rel -= l.live
			if m.atom != 0 {
				if rel == 0 {
					break descend
				}
				rel--
			}
			if rel+1 < r.live {
				next, nn, elem = m.kids[1], r, ident.M(n.bit, m.dis())
				break
			}
			if rel < r.live {
				break descend
			}
			rel -= r.live
			mh = m.next
		}
		if next == 0 {
			// Both targets remain in the major-right subtree.
			next, nn, elem = n.kids[1], t.node(n.kids[1]), ident.J(n.bit)
		}
		if h != rootH {
			dstP = append(dstP, elem)
		}
		h, n, a = next, nn, rel
	}
	// The routes split inside h: finish each target separately. The right
	// target first, so the walk cache ends at the left neighbour.
	fBase := len(dstF)
	dstF = append(dstF, dstP[pBase:]...)
	var fs, ps slot
	if dstF, fs, err = t.appendIDDown(h, int(a+1), dstF); err != nil {
		return dstP, dstF, g, err
	}
	if dstP, ps, err = t.appendIDDown(h, int(a), dstP); err != nil {
		return dstP, dstF, g, err
	}
	if pBase == 0 {
		t.cacheWalk(dstP, ps)
	}
	return dstP, dstF, Gap{Slot{ps, len(dstP) - pBase}, Slot{fs, len(dstF) - fBase}}, nil
}

// IndexOfID returns the current document index of the live atom with the
// given identifier.
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

// VisitRange calls fn for the live atoms of the index range [from, to) in
// document order, descending by live counts to skip whole subtrees before
// the range: one walk of cost O(height + to - from), where per-atom lookup
// would cost O((to-from)·height). It does not explode flattened regions.
// Iteration stops early if fn returns false.
func (t *Tree) VisitRange(from, to int, fn func(atom string) bool) error {
	if from < 0 || to < from || to > t.Len() {
		return fmt.Errorf("doctree: range [%d,%d) out of range [0,%d]", from, to, t.Len())
	}
	skip, count := from, to-from
	t.visitRange(rootH, &skip, &count, fn)
	return nil
}

func (t *Tree) visitRange(h nodeH, skip, count *int, fn func(string) bool) bool {
	if h == 0 || *count == 0 {
		return true
	}
	n := t.node(h)
	if *skip >= int(n.live) {
		*skip -= int(n.live)
		return true
	}
	if n.flat {
		for _, a := range t.flats[h][*skip:] {
			if *count == 0 {
				return true
			}
			if !fn(a) {
				return false
			}
			*count--
		}
		*skip = 0
		return true
	}
	if !t.visitRange(n.kids[0], skip, count, fn) {
		return false
	}
	for mh := n.first; mh != 0; {
		if *count == 0 {
			return true
		}
		m := t.mini(mh)
		if !t.visitRange(m.kids[0], skip, count, fn) {
			return false
		}
		if m.atom != 0 && *count > 0 {
			if *skip > 0 {
				*skip--
			} else {
				if !fn(*t.atoms.at(m.atom)) {
					return false
				}
				*count--
			}
		}
		if !t.visitRange(m.kids[1], skip, count, fn) {
			return false
		}
		mh = m.next
	}
	return t.visitRange(n.kids[1], skip, count, fn)
}

// VisitLive calls fn for every live atom in document order with its index.
// Iteration stops early if fn returns false.
func (t *Tree) VisitLive(fn func(i int, atom string) bool) {
	i, skip, count := 0, 0, t.Len()
	t.visitRange(rootH, &skip, &count, func(a string) bool {
		i++
		return fn(i-1, a)
	})
}
