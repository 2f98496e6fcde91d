package doctree

import (
	"github.com/treedoc/treedoc/internal/ident"
)

// Stats aggregates the overhead measurements of the paper's evaluation
// (Section 5, Table 1): identifier sizes, node counts, tombstone fraction,
// and the in-memory cost model.
type Stats struct {
	LiveAtoms int // atoms currently in the document
	DocBytes  int // total bytes of live atoms (document size)

	Nodes     int // tree nodes, reserved ones built or not; flattened regions count zero
	Minis     int // mini-nodes, including tombstones
	DeadMinis int // tombstone mini-nodes
	FlatAtoms int // atoms held in flattened (array) regions

	MaxIDBits   int // longest live-atom identifier, in bits
	TotalIDBits int // sum of live-atom identifier sizes, in bits
	DeadIDBits  int // sum of tombstone identifier sizes, in bits

	MemBytes int // in-memory overhead under the paper's node cost model
	// HeapBytes is what the tree structure actually occupies on the Go
	// heap: the node and mini slabs, the atom store's blocks and their
	// buffers' capacity less the live text, and the stamp chunks, unused
	// records included (see heapBytes). The text itself is DocBytes.
	HeapBytes int
}

// OverheadBitsPerAtom is total identifier overhead — live and tombstone
// identifiers together — relative to the live document (Table 4's
// "overhead/atom" row): tombstones cost space even though their atoms are
// gone, which is exactly why UDIS beats SDIS overall despite its larger
// per-identifier cost.
func (s Stats) OverheadBitsPerAtom() float64 {
	if s.LiveAtoms == 0 {
		return 0
	}
	return float64(s.TotalIDBits+s.DeadIDBits) / float64(s.LiveAtoms)
}

// AvgIDBits returns the average live-atom identifier size in bits
// (Table 1's "PosID Avg" column).
func (s Stats) AvgIDBits() float64 {
	if s.LiveAtoms == 0 {
		return 0
	}
	return float64(s.TotalIDBits) / float64(s.LiveAtoms)
}

// NonTombstoneFraction returns the fraction of non-tombstone atom slots
// (Table 1's "% non-Tomb" column). Flattened atoms count as non-tombstones:
// flatten discards tombstones by construction.
func (s Stats) NonTombstoneFraction() float64 {
	total := s.Minis + s.FlatAtoms
	if total == 0 {
		return 1
	}
	return float64(s.Minis-s.DeadMinis+s.FlatAtoms) / float64(total)
}

// MemOverheadRatio returns in-memory overhead relative to document size
// (Table 1's "Mem ovhd" column).
func (s Stats) MemOverheadRatio() float64 {
	if s.DocBytes == 0 {
		return 0
	}
	return float64(s.MemBytes) / float64(s.DocBytes)
}

// HeapOverModel returns how many bytes the tree structure holds on the Go
// heap per byte the paper's model prices it at; 0 for a fully flattened
// document, whose model cost is zero.
func (s Stats) HeapOverModel() float64 {
	if s.MemBytes == 0 {
		return 0
	}
	return float64(s.HeapBytes) / float64(s.MemBytes)
}

// Stats measures the tree under disambiguator cost model c.
//
// The memory model follows Section 5.2: a standard node holds its subtree's
// non-tombstone count (4 B), two child pointers (2×4 B), one disambiguator,
// and an atom pointer (4 B) — 26 B with the 10-byte UDIS disambiguator. A
// node with several mini-nodes replaces the disambiguator with an array of
// {node, disambiguator} pairs; mini-node children add two pointers each.
// Flattened regions cost nothing: they are the plain sequential buffer.
func (t *Tree) Stats(c ident.Cost) Stats {
	s := Stats{HeapBytes: t.heapBytes()}
	t.statsWalk(rootH, 0, 0, c, &s)
	return s
}

// statsWalk accumulates s over h's subtree. depth is h's level (one
// identifier bit per level) and disBits the disambiguator bits of the
// mini-node selections above h, threaded down the recursion so each
// identifier's size is known at its mini without re-climbing to the root.
func (t *Tree) statsWalk(h nodeH, depth, disBits int, c ident.Cost, s *Stats) {
	if h == 0 {
		return
	}
	n := t.node(h)
	if n.flat() {
		s.FlatAtoms += int(n.live)
		s.LiveAtoms += int(n.live)
		for a, end := n.u, n.u+n.live; a < end; a = (a | chunkMask) + 1 { // a block's part of the run at a time
			b, lo, _, _ := t.atoms.span(a)
			s.DocBytes += int(b.end[min(end-1, a|chunkMask)&chunkMask] - lo)
		}
		sum, top := flatIDBits(int(n.live), depth+disBits, h == rootH)
		s.TotalIDBits, s.MaxIDBits = s.TotalIDBits+sum, max(s.MaxIDBits, top)
		return
	}
	if h != rootH {
		k := n.runLen() + int(reservedNodes(n.reserve))
		s.Nodes += k
		s.MemBytes += 12 * k // subtree count + two child pointers
	}
	t.statsWalk(n.kids[0], depth+n.runLen(), disBits, c, s)
	for i := 0; i < n.runLen() && n.solo(); i++ { // a run's members, one a level
		t.statsMini(n.liveAtom(), depth+i+disBits+c.Bits(t.soloDis(n)), c, s)
	}
	for mh := n.minis(); mh != 0; {
		m := t.mini(mh)
		if m.hasKids {
			s.MemBytes += 8
		}
		mBits := disBits + c.Bits(t.dis(m))
		t.statsMini(m.atom, depth+mBits, c, s)
		t.statsWalk(t.kids(slot{h, mh})[0], depth+1, mBits, c, s)
		t.statsWalk(t.kids(slot{h, mh})[1], depth+1, mBits, c, s)
		mh = m.next
	}
	t.statsWalk(n.kids[1], depth+n.runLen(), disBits, c, s)
}

// statsMini accumulates s over one mini-node, holding atom (0: dead), whose
// identifier is bits long.
func (t *Tree) statsMini(atom uint32, bits int, c ident.Cost, s *Stats) {
	s.Minis++
	s.MemBytes += c.DisBytes() + 4 // disambiguator + atom pointer
	if atom == 0 {
		s.DeadMinis++
		s.DeadIDBits += bits
		return
	}
	s.LiveAtoms++
	s.DocBytes += len(t.atoms.text(atom))
	s.TotalIDBits, s.MaxIDBits = s.TotalIDBits+bits, max(s.MaxIDBits, bits)
}

// flatIDBits returns the total and maximum identifier bit sizes the n atoms
// of a flattened region would have once exploded into canonical form: pure
// bitstrings below the region root, one bit per level (Section 4.2). base
// is the size of the region root's path: its depth and the disambiguators
// above it; atRoot indicates the document root region, whose canonical form
// skips the atom-less root slot.
func flatIDBits(n, base int, atRoot bool) (sum, top int) {
	if n == 0 {
		return 0, 0
	}
	if atRoot {
		depth := 0
		for 2*subtreeCapacity(depth) < n {
			depth++
		}
		nLeft := min(n, subtreeCapacity(depth))
		s1, m1 := canonicalDepthSum(nLeft, depth, base+1)
		s2, m2 := canonicalDepthSum(n-nLeft, depth, base+1)
		return s1 + s2, max(m1, m2)
	}
	depth := 1
	for subtreeCapacity(depth) < n {
		depth++
	}
	return canonicalDepthSum(n, depth, base)
}

// canonicalDepthSum returns the sum and maximum of identifier depths for n
// atoms filling the first n infix slots of a complete subtree with the
// given number of levels, whose root sits at depth base.
func canonicalDepthSum(n, levels, base int) (sum, top int) {
	if n == 0 {
		return 0, 0
	}
	nLeft := min(n, subtreeCapacity(levels-1))
	sum, top = canonicalDepthSum(nLeft, levels-1, base+1)
	if rest := n - nLeft; rest > 0 {
		s, m := canonicalDepthSum(rest-1, levels-1, base+1)
		sum, top = sum+base+s, max(top, base, m)
	}
	return sum, top
}

// ColdestSubtree returns the structural path of the most profitable cold
// subtree: among subtrees whose latest edit is at or before cutoff and that
// hold at least minNodes nodes (and, with liveOnly, a live atom), the one
// maximising a tombstone-weighted size score. The paper's own heuristic
// picked cold areas by size alone and under-delivered ("we believe the
// heuristic choice of the sub-tree to flatten is to blame", Section 5.1);
// weighting tombstones targets the garbage flatten actually collects.
// Returns nil if nothing qualifies; the root (whole document) is returned
// only when everything is cold.
func (t *Tree) ColdestSubtree(cutoff int64, minNodes int, liveOnly bool) ident.Path {
	best, _, _, _, _ := t.coldWalk(rootH, cutoff, minNodes, liveOnly)
	if best == 0 {
		return nil
	}
	return t.pathTo(best)
}

// coldWalk returns the best flatten candidate within h's subtree with its
// score, and the subtree's node and tombstone counts and latest edit
// revision. Edits stamp only the edit point (Tree.stamps) and bubble keeps
// no node or tombstone counts, so this rare post-order scan sums all three
// instead of the per-edit climb. A subtree whose latest edit is at or before
// cutoff is cold; its root dominates every descendant's score (the sums are
// inclusive), so the highest cold node on each path is the candidate. The
// score weights tombstones heavily: collecting them is flatten's GC payoff,
// shortening identifiers the secondary one.
func (t *Tree) coldWalk(h nodeH, cutoff int64, minNodes int, liveOnly bool) (best nodeH, score, nodes, dead int, maxRev int64) {
	if h == 0 {
		return 0, 0, 0, 0, 0
	}
	n := t.node(h)
	maxRev = int64(t.stamp(h))
	if n.flat() {
		return 0, 0, 0, 0, maxRev
	}
	consider := func(b nodeH, s, bNodes, bDead int, r int64) {
		maxRev, nodes, dead = max(maxRev, r), nodes+bNodes, dead+bDead
		if b != 0 && (best == 0 || s > score) {
			best, score = b, s
		}
	}
	consider(t.coldWalk(n.kids[0], cutoff, minNodes, liveOnly))
	if n.solo() && n.liveAtom() == 0 {
		dead += n.runLen()
	}
	for mh := n.minis(); mh != 0; mh = t.mini(mh).next {
		m := t.mini(mh)
		if m.atom == 0 {
			dead++
		}
		consider(t.coldWalk(t.kids(slot{h, mh})[0], cutoff, minNodes, liveOnly))
		consider(t.coldWalk(t.kids(slot{h, mh})[1], cutoff, minNodes, liveOnly))
	}
	consider(t.coldWalk(n.kids[1], cutoff, minNodes, liveOnly))
	if h != rootH {
		nodes += n.runLen() + int(reservedNodes(n.reserve)) // the root holds no atoms and is not counted
	}
	// Candidates must contain a mini-node that remote replicas materialise
	// too, or a distributed flatten could not resolve them there: locally
	// reserved slots do not count, nor, with liveOnly (UDIS, where deletes
	// discard), a tombstone, which a reserved slot may be all that holds. A
	// run's members read as cold as each other (see join): its top is it.
	if maxRev <= cutoff && nodes >= minNodes && (n.live >= 1 || !liveOnly && dead >= 1) {
		best, score = h, 8*dead+nodes
	}
	return best, score, nodes, dead, maxRev
}
