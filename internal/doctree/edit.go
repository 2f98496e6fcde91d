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
	// Fast path: walk the identifier accumulating all count deltas, then
	// climb to the root once. Nodes created here form a suffix of the walk
	// (a created node's children cannot pre-exist), so their counters are
	// set exactly in one bottom-up pass over the created chain. The one case
	// needing a placeholder mini inside a *pre-existing* node mid-path — a
	// replay whose ancestors were concurrently discarded (Section 3.3.1) —
	// falls back to the per-delta slow path before anything is modified.
	cur, depth := t.resumeSlot(from, id)
	skip := depth
	if err := id.ValidateFrom(depth); err != nil {
		return Slot{}, fmt.Errorf("doctree: insert %v: %w", id, err)
	}
	if err := t.room(len(id), len(id)); err != nil {
		return Slot{}, fmt.Errorf("doctree: insert %v: %w", id, err)
	}
	var first nodeH       // shallowest node created by this walk
	finalCreated := false // the atom's mini was created (vs found)
	ownerWasFree := false // final mini added to an existing node with no minis
	for _, e := range id[depth:] {
		if err := t.explodeNode(cur.node); err != nil {
			return Slot{}, err
		}
		depth++
		next := t.kids(cur)[e.Bit]
		created := next == 0
		if created {
			next = t.newNode(cur, e.Bit)
			t.kids(cur)[e.Bit] = next
			if first == 0 {
				first = next
			}
			if depth > t.height {
				t.height = depth
			}
		} else if err := t.explodeNode(next); err != nil {
			return Slot{}, err
		}
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		n := t.node(next)
		m := t.findMini(n, e.Dis)
		if m == 0 {
			if !created && depth != len(id) {
				return t.insertSlow(id, atom)
			}
			if !created {
				ownerWasFree = n.first == 0
			}
			m = t.insertMini(n, e.Dis)
			if depth == len(id) {
				finalCreated = true
			}
		}
		cur = slot{node: next, mini: m}
	}
	m := t.mini(cur.mini)
	switch {
	case !finalCreated:
		if m.atom != 0 {
			return Slot{}, fmt.Errorf("doctree: insert %v: identifier already holds a live atom", id)
		}
		// Revive an existing tombstone.
		m.atom = t.atoms.put(atom)
		t.bubble(cur.node, +1, 0)
	case first == 0:
		// Fresh mini in an existing node; no structure added.
		m.atom = t.atoms.put(atom)
		d := 0
		if ownerWasFree {
			d = -1 // the node stops being a free slot
		}
		t.bubble(cur.node, +1, d)
	default:
		// Set the created chain's counters bottom-up, then climb once from
		// the chain's attachment point with the accumulated deltas.
		m.atom = t.atoms.put(atom)
		var accEmpty uint32
		for h := cur.node; ; {
			n := t.node(h)
			if n.first == 0 {
				accEmpty++
			}
			n.live = 1
			n.emptyN = accEmpty
			n.lastMod = t.rev
			if h == first {
				break
			}
			h = n.parent
		}
		t.bubble(t.node(first).parent, +1, int(accEmpty))
	}
	if from.at.node == 0 { // a walk from the caller's slot compared no prefix with the cache's
		t.cacheWalkFrom(id, cur, skip)
	}
	return Slot{cur, len(id)}, nil
}

// insertSlow is InsertID's general path: full per-delta materialisation, for
// replays that must re-create placeholder minis inside existing nodes.
func (t *Tree) insertSlow(id ident.Path, atom string) (Slot, error) {
	s, err := t.materialize(id)
	if err != nil {
		return Slot{}, fmt.Errorf("doctree: insert %v: %w", id, err)
	}
	m := t.mini(s.mini)
	if m.atom != 0 {
		return Slot{}, fmt.Errorf("doctree: insert %v: identifier already holds a live atom", id)
	}
	m.atom = t.atoms.put(atom)
	t.bubble(s.node, +1, 0)
	return Slot{s, len(id)}, nil
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
		if IsNotFound(err) {
			return false, nil
		}
		return false, fmt.Errorf("doctree: delete %v: %w", id, err)
	}
	return t.deleteMini(s, prune), nil
}

// DeleteAtIndex deletes the i-th live atom in a single count-guided descent,
// appending its identifier to dst. The locate walk already ends at the
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
	m := t.mini(s.mini)
	kept := !prune || m.kids[0] != 0 || m.kids[1] != 0
	t.deleteMini(s, prune)
	if kept && base == 0 {
		// The tombstone stays addressable, so the completed walk may seed the
		// cache exactly as AppendIDAt would (a prune invalidates it instead,
		// inside deleteMini).
		t.cacheWalk(dst, s)
	}
	return dst, nil
}

// deleteMini applies delete semantics to a located mini-node; see DeleteID.
func (t *Tree) deleteMini(s slot, prune bool) (found bool) {
	m := t.mini(s.mini)
	if m.atom == 0 {
		return false
	}
	t.atoms.drop(m.atom)
	m.atom = 0
	if !prune || m.kids[0] != 0 || m.kids[1] != 0 {
		// Tombstone (SDIS), or a discard blocked by descendants (UDIS).
		t.bubble(s.node, -1, 0)
		return true
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
	for n.parent != 0 && n.empty() && n.kids[0] == 0 && n.kids[1] == 0 {
		up := slot{node: n.parent, mini: n.pmini}
		t.kids(up)[n.bit] = 0
		t.nodes.release(uint32(h))
		dEmpty-- // the released node was an empty slot
		h, n = up.node, t.node(up.node)
		if up.mini != 0 {
			if pm := t.mini(up.mini); pm.atom == 0 && pm.kids[0] == 0 && pm.kids[1] == 0 {
				t.unlinkMini(n, up.mini)
				if n.empty() {
					dEmpty++
				}
			}
		}
	}
	t.bubble(h, -1, dEmpty)
	return true
}

// HasLive reports whether id currently identifies a live atom.
func (t *Tree) HasLive(id ident.Path) bool {
	s, err := t.walkMini(id)
	return err == nil && t.mini(s.mini).atom != 0
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
// does, and returning a used identifier's slot. Unlike walkMini, this never
// explodes flattened regions: identifiers inside them are canonical pure
// bitstrings, so any site-disambiguated candidate is known absent without
// materialising the region (one only presumed used there has no slot).
func (t *Tree) ExistsFrom(from Slot, id ident.Path) (Slot, bool) {
	cur, skip := t.resumeSlot(from, id)
	for i, e := range id[skip:] {
		i += skip
		if t.node(cur.node).flat {
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
		if e.Kind == ident.Major {
			cur = slot{node: next}
			continue
		}
		n := t.node(next)
		if n.flat {
			// Conservatively used inside the canonical space.
			return Slot{}, e.Dis.IsCanonical()
		}
		m := t.findMini(n, e.Dis)
		if m == 0 {
			return Slot{}, false
		}
		cur = slot{node: next, mini: m}
	}
	return Slot{cur, len(id)}, cur.mini != 0
}
