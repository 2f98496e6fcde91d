package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// InsertID places atom at identifier id, materialising any missing ancestor
// structure (replay may find ancestors discarded concurrently under UDIS and
// "must re-create empty nodes to replace them", Section 3.3.1). It fails if
// a live atom already holds the identifier: position identifiers are unique
// (Section 2.1), so a duplicate indicates a protocol violation upstream.
func (t *Tree) InsertID(id ident.Path, atom string) error {
	_, err := t.InsertFrom(Slot{}, id, atom)
	return err
}

// InsertFrom is InsertID for a caller that holds a walk position on id's
// route: from is the slot id's first elements lead to, and only the rest of
// id is walked. The zero Slot resumes from the walk cache, as InsertID
// does. It returns the slot the atom lands in.
func (t *Tree) InsertFrom(from Slot, id ident.Path, atom string) (Slot, error) {
	if len(id) == 0 || id.Last().Kind != ident.Mini {
		return Slot{}, fmt.Errorf("doctree: insert %v: not an atom identifier", id)
	}
	s, made, err := t.materialize(from, id)
	if err != nil {
		return Slot{}, fmt.Errorf("doctree: insert %v: %w", id, err)
	}
	a := t.atomOf(s)
	if *a != 0 {
		return Slot{}, fmt.Errorf("doctree: insert %v: identifier already holds a live atom", id)
	}
	*a = t.atoms.put(atom)
	t.settle(s.node, made, +1)
	return Slot{at: s, depth: len(id)}, nil
}

// DeleteID removes the atom with identifier id. The delete operation is
// idempotent (Section 2.2): deleting an already-dead or already-discarded
// identifier reports found=false with no error.
//
// With prune=true (UDIS semantics, Section 3.3.1) the mini-node is discarded
// immediately when it has no descendants, and emptied ancestors are
// discarded recursively. With prune=false (SDIS semantics, Section 3.3.2)
// the mini-node is kept as a tombstone so the identifier is never reused.
func (t *Tree) DeleteID(id ident.Path, prune bool) (found bool, err error) {
	s, err := t.walkMini(id)
	if err != nil {
		if err == errNotFound {
			return false, nil
		}
		return false, fmt.Errorf("doctree: delete %v: %w", id, err)
	}
	_, found = t.deleteMini(s, prune)
	return found, nil
}

// DeleteAtIndex deletes the i-th live atom in a single count-guided descent,
// appending its identifier to dst. The descent already ends at the
// atom's mini-node, so the delete needs no second identifier walk — local
// deletes are the other half of an editor's hot path, and the re-walk
// DeleteID would do costs a full O(depth) prefix comparison even when it
// resumes from the walk cache.
func (t *Tree) DeleteAtIndex(i int, prune bool, dst ident.Path) (ident.Path, error) {
	if i < 0 || i >= t.Len() {
		return dst, fmt.Errorf("doctree: index %d out of range [0,%d)", i, t.Len())
	}
	base := len(dst)
	dst, s, err := t.appendIDDown(rootH, i, dst)
	if err != nil {
		return dst, err
	}
	if kept, _ := t.deleteMini(s, prune); kept.node != 0 && base == 0 {
		// The tombstone stays addressable, so the completed walk may seed the
		// cache exactly as AppendIDAt would (a prune invalidates it instead,
		// inside deleteMini).
		t.cacheWalk(dst, kept)
	}
	return dst, nil
}

// deleteMini applies delete semantics to a located mini-node; see DeleteID.
// It returns the slot of the dead mini it keeps, the zero slot for none.
func (t *Tree) deleteMini(s slot, prune bool) (kept slot, found bool) {
	a, hasKids := t.atomOf(s), t.kids(s) != [2]nodeH{}
	if *a == 0 {
		return s, false
	}
	t.atoms.drop(*a)
	*a = 0
	if !prune || hasKids {
		// Tombstone (SDIS), or a discard blocked by descendants (UDIS).
		if t.bubble(s.node, -1, 0); s.mini == soloMini && t.join(s.node) {
			return slot{}, true
		}
		return s, true
	}
	// UDIS discard: remove the mini and cascade emptied ancestors, then
	// climb once with the accumulated deltas. Nodes released mid-cascade
	// need no counter updates (they are gone); only the chain above the
	// cascade's stop point sees the net change.
	t.cacheDrop()
	h, n := s.node, t.node(s.node)
	t.unlinkMini(n, s.mini)
	dEmpty := 0
	if n.empty() {
		dEmpty++
	}
	for n.parent != 0 && n.empty() && n.kids == [2]nodeH{} && n.reserve == 0 {
		up := t.hangsFrom(h, n)
		t.setKid(up, n.bit(), 0)
		t.nodes.release(uint32(h))
		dEmpty-- // the released node was an empty slot
		h, n = up.node, t.node(up.node)
		if up.mini != 0 {
			if pm := t.mini(up.mini); pm.atom == 0 && !pm.hasKids {
				t.unlinkMini(n, up.mini)
				if n.empty() {
					dEmpty++
				}
			}
		}
	}
	t.bubble(h, -1, dEmpty)
	return slot{}, true
}

// HasLive reports whether id currently identifies a live atom.
func (t *Tree) HasLive(id ident.Path) bool {
	s, err := t.walkMini(id)
	return err == nil && *t.atomOf(s) != 0
}

// Exists reports whether id is a used identifier: a live atom or a
// tombstone. Identifier allocation consults this so SDIS never re-mints a
// tombstoned identifier (Section 3.3.2: "a delete does not discard the
// node" exactly so the identifier stays used).
func (t *Tree) Exists(id ident.Path) bool {
	_, used := t.ExistsFrom(Slot{}, id)
	return used
}

// ExistsFrom is Exists walking on from a slot on id's route, as InsertFrom
// does, and returning a used identifier's slot (see Slot.run). Unlike
// walkMini, this never explodes flattened regions: identifiers inside them
// are canonical pure bitstrings, so any site-disambiguated candidate is
// known absent without materialising the region (one only presumed used
// there has no slot).
func (t *Tree) ExistsFrom(from Slot, id ident.Path) (Slot, bool) {
	cur, i := t.resumeSlot(from, id)
	for ; i < len(id); i++ {
		e := id[i]
		if t.node(cur.node).flat() {
			// Inside a flattened region every used identifier carries only
			// canonical disambiguators on a pure bitstring; a candidate with
			// a site disambiguator cannot collide. Candidates that are pure
			// canonical are never allocated (explode owns that space), so
			// conservatively report used only for canonical-tail ids.
			for ; i < len(id); i++ {
				if id[i].Kind == ident.Mini && !id[i].Dis.IsCanonical() {
					return Slot{}, false
				}
			}
			return Slot{}, true
		}
		next := t.kids(cur)[e.Bit]
		if next == 0 {
			return Slot{}, false
		}
		n := t.node(next)
		if j := n.hop(id, i); n.run() {
			if e = id[i+j]; e.Kind == ident.Mini && i+j+1 == len(id) && e.Dis == t.soloDis(n) {
				return Slot{cur, i, true}, true // a member's tomb
			} else if e.Kind == ident.Mini || j+1 < n.runLen() {
				return Slot{}, false
			}
			i += j
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		if n.flat() {
			// Conservatively used inside the canonical space.
			return Slot{}, e.Dis.IsCanonical()
		}
		m := t.findMini(n, e.Dis)
		if m == 0 {
			return Slot{}, false
		}
		cur = slot{node: next, mini: m}
	}
	return Slot{at: cur, depth: len(id)}, cur.mini != 0
}
