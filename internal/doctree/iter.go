package doctree

import (
	"fmt"
	"strings"

	"github.com/treedoc/treedoc/internal/ident"
)

// Content returns a copy of the document's live atoms in order. It does not
// explode flattened regions.
func (t *Tree) Content() []string {
	out := make([]string, 0, t.Len())
	t.VisitBytes(0, t.Len(), func(a []byte) bool { out = append(out, string(a)); return true })
	return out
}

// AtomAt returns a copy of the i-th live atom (0-based) without exploding
// flattened regions.
func (t *Tree) AtomAt(i int) (atom string, err error) {
	if i < 0 || i >= t.Len() {
		return "", fmt.Errorf("doctree: index %d out of range [0,%d)", i, t.Len())
	}
	t.VisitBytes(i, i+1, func(a []byte) bool { atom = string(a); return true })
	return atom, nil
}

// IDAt returns the position identifier of the i-th live atom; see AppendIDAt.
func (t *Tree) IDAt(i int) (ident.Path, error) {
	id, _, err := t.AppendIDAt(nil, i)
	return id, err
}

// AppendIDAt appends the position identifier of the i-th live atom to dst
// and returns where the atom lies. It is IDAt in append-to-dst form for
// callers that consult identifiers per edit (neighbour lookups), and it
// builds the identifier during the descent itself: the nodes the
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
	return dst, Slot{at: s, depth: len(dst) - base}, nil
}

// appendIDDown locates the i-th live atom of h's subtree, appending the
// identifier elements of the descent to dst, and returns the extended path
// and the atom's slot. i must be within h's live count. Flattened regions on
// the way are exploded.
func (t *Tree) appendIDDown(h nodeH, at int, dst ident.Path) (ident.Path, slot, error) {
	i, n := uint32(at), t.node(h)
descend:
	for {
		if n.flat() {
			if err := t.explode(h); err != nil {
				return dst, slot{}, err
			}
		}
		// Leaving n through a major slot emits a plain element (a run one
		// a member), through a mini its disambiguated one; the root none.
		l := t.node(n.kids[0])
		if i < l.live {
			if h != rootH {
				dst = n.appendRun(append(dst, ident.J(n.bit())))
			}
			h, n = n.kids[0], l
			continue
		}
		i -= l.live
		if n.liveAtom() != 0 {
			if i == 0 {
				return append(dst, ident.M(n.bit(), t.soloDis(n))), slot{node: h, mini: soloMini}, nil
			}
			i--
		}
		for mh := n.minis(); mh != 0; {
			m := t.mini(mh)
			kids := t.miniKids(mh, m)
			l, r := t.node(kids[0]), t.node(kids[1])
			if i < l.live {
				dst = append(dst, ident.M(n.bit(), t.dis(m)))
				h, n = kids[0], l
				continue descend
			}
			i -= l.live
			if m.atom != 0 {
				if i == 0 {
					return append(dst, ident.M(n.bit(), t.dis(m))), slot{node: h, mini: mh}, nil
				}
				i--
			}
			if i < r.live {
				dst = append(dst, ident.M(n.bit(), t.dis(m)))
				h, n = kids[1], r
				continue descend
			}
			i -= r.live
			mh = m.next
		}
		if h != rootH {
			dst = n.appendRun(append(dst, ident.J(n.bit())))
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
		if n.flat() {
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
			next, nn, elem = n.kids[0], l, ident.J(n.bit())
		} else if rel < l.live {
			break descend
		} else if rel -= l.live; n.liveAtom() != 0 { // a live solo
			if rel == 0 {
				break descend
			}
			rel--
		}
		for mh := n.minis(); mh != 0 && next == 0; {
			m := t.mini(mh)
			kids := t.miniKids(mh, m)
			l, r := t.node(kids[0]), t.node(kids[1])
			if rel+1 < l.live {
				next, nn, elem = kids[0], l, ident.M(n.bit(), t.dis(m))
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
				next, nn, elem = kids[1], r, ident.M(n.bit(), t.dis(m))
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
			next, nn, elem = n.kids[1], t.node(n.kids[1]), ident.J(n.bit())
		}
		if h != rootH {
			dstP = n.appendRun(append(dstP, elem))
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
	return dstP, dstF, Gap{Slot{at: ps, depth: len(dstP) - pBase}, Slot{at: fs, depth: len(dstF) - fBase}}, nil
}

// VisitBytes calls fn for the live atoms of the index range [from, to) in
// document order, descending by live counts to skip whole subtrees before
// the range: one walk of cost O(height + to - from), where per-atom lookup
// would cost O((to-from)·height). It does not explode flattened regions.
// Iteration stops early if fn returns false. fn reads an atom's bytes in
// place: it must not modify them or keep them past its return.
func (t *Tree) VisitBytes(from, to int, fn func(atom []byte) bool) error {
	if from < 0 || to < from || to > t.Len() {
		return fmt.Errorf("doctree: range [%d,%d) out of range [0,%d]", from, to, t.Len())
	}
	skip, count := from, to-from
	t.visitRange(rootH, &skip, &count, fn)
	return nil
}

// Text returns the live atoms of the index range [from, to), which must lie
// in the document, joined by sep: the one copy of their text, read in place
// and sized by a first walk.
func (t *Tree) Text(from, to int, sep string) string {
	n := (to - from) * len(sep)
	t.VisitBytes(from, to, func(a []byte) bool { n += len(a); return true })
	var b strings.Builder // each atom goes in after a sep; the first is cut off
	b.Grow(n)
	t.VisitBytes(from, to, func(a []byte) bool { b.WriteString(sep); b.Write(a); return true })
	return b.String()[min(len(sep), b.Len()):]
}

func (t *Tree) visitRange(h nodeH, skip, count *int, fn func([]byte) bool) bool {
	if h == 0 || *count == 0 {
		return true
	}
	n := t.node(h)
	if *skip >= int(n.live) {
		*skip -= int(n.live)
		return true
	}
	if n.flat() {
		for a := n.u + uint32(*skip); a < n.u+n.live && *count > 0; a++ {
			*count--
			if !fn(t.atoms.text(a)) {
				return false
			}
		}
		*skip = 0
		return true
	}
	if !t.visitRange(n.kids[0], skip, count, fn) {
		return false
	}
	if !t.visitAtom(n.liveAtom(), skip, count, fn) {
		return false
	}
	for mh := n.minis(); mh != 0; {
		if *count == 0 {
			return true
		}
		m := t.mini(mh)
		if !t.visitRange(t.kids(slot{h, mh})[0], skip, count, fn) {
			return false
		}
		if !t.visitAtom(m.atom, skip, count, fn) {
			return false
		}
		if !t.visitRange(t.kids(slot{h, mh})[1], skip, count, fn) {
			return false
		}
		mh = m.next
	}
	return t.visitRange(n.kids[1], skip, count, fn)
}

// visitAtom passes the text of atom handle a, unless it is dead or skipped,
// to fn, and reports whether to go on.
func (t *Tree) visitAtom(a uint32, skip, count *int, fn func([]byte) bool) bool {
	switch {
	case a == 0 || *count == 0:
		return true
	case *skip > 0:
		*skip--
		return true
	}
	*count--
	return fn(t.atoms.text(a))
}
