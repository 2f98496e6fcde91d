package core

import (
	"math/bits"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// Strategy allocates fresh position identifiers for local inserts. All
// strategies must return an identifier strictly between the neighbours (nil
// p means document start, nil f document end); they differ in how they fight
// tree unbalance (Section 4.1).
//
// An identifier is built as elements in a scratch buffer the document owns
// and passes in, never in memory of its own: what outlives the call is the
// packed form (ident.Packed), made once per identifier.
type Strategy interface {
	// NewID appends to dst a fresh identifier strictly between p and f,
	// carrying disambiguator d, and returns the result; dst shares no memory
	// with p or f. No live atom may lie between p and f: they are an
	// insertion gap's neighbours, or a used identifier inside the gap and
	// the right neighbour, and at says where they lie. The tree provides
	// structural context (existing empty slots, current height);
	// implementations may reserve empty slots but must not otherwise modify
	// it. The Slot returned lies on the new identifier's route — the insert
	// walks on from there — or is zero if the strategy knows none.
	NewID(t *doctree.Tree, dst, p, f ident.Path, at doctree.Gap, d ident.Dis) (ident.Path, doctree.Slot)
	// NewRun returns n ≥ 2 fresh identifiers in ascending order, all strictly
	// between p and f, for a consecutive insert run (a run of one goes to
	// NewID). Each is built in buf and packed; buf comes back with whatever
	// it grew to.
	NewRun(t *doctree.Tree, buf, p, f ident.Path, d ident.Dis, n int) ([]ident.Packed, ident.Path)
	// Name identifies the strategy in benchmark output.
	Name() string
}

// naiveID implements Algorithm 1: allocate a child slot adjacent to one of
// the neighbours, appended to dst, and return it with the slot of the
// neighbour's node it hangs from (at is where the neighbours lie). The
// case analysis follows the paper's rules 4–7, phrased constructively on
// identifier regions — a node's region is the interval of every identifier
// whose walk passes through it (ident.RegionCompare):
//
//   - rule 6: f enters p's major node through a later mini-sibling (or is
//     one): the new atom becomes a right child of mini-node p;
//   - rule 4: p is an ancestor of f (f's walk passes through p's node): the
//     new atom becomes the left child of f's node;
//   - rules 5/7: otherwise the new atom becomes the right child of p's node.
//
// Every read of p happens before the first write, so an empty dst may be
// p's own buffer: a chain of children is then extended in place.
func naiveID(dst, p, f ident.Path, at doctree.Gap, d ident.Dis) (ident.Path, doctree.Slot) {
	switch {
	case p == nil && f == nil:
		return append(dst, ident.M(1, d)), doctree.Slot{}
	case p == nil:
		return childOfStripped(dst, f, ident.M(0, d)), at.F.Major()
	case f == nil:
		return childOfStripped(dst, p, ident.M(1, d)), at.P.Major()
	}
	k := len(p)
	if len(f) >= k && f[k-1].Kind == ident.Mini &&
		f[k-1].Bit == p[k-1].Bit && f[k-1].Dis != p[k-1].Dis &&
		f[:k-1].Equal(p[:k-1]) {
		// Rule 6: mini-siblings (p < f implies f's sibling disambiguator is
		// the larger, so p's node-level right child would overshoot it).
		return append(append(dst, p...), ident.M(1, d)), at.P
	}
	if len(f) >= k && f[k-1].Bit == p[k-1].Bit && f[:k-1].Equal(p[:k-1]) {
		// Rule 4: f descends through p's node (p is its ancestor): attach
		// left of f. Everything under f's node-left slot sorts after p here.
		// (The structural test is RegionCompare(f, p.StripLastDis()) == 0,
		// spelled out to avoid materialising the stripped path.)
		return childOfStripped(dst, f, ident.M(0, d)), at.F.Major()
	}
	// Rules 5 and 7: f is an ancestor of p or unrelated; in both cases p's
	// node-level right region lies strictly between p and f (subtree regions
	// are intervals, and f sorts beyond p's node's region).
	return childOfStripped(dst, p, ident.M(1, d)), at.P.Major()
}

// childOfStripped appends p.StripLastDis().Child(e) to dst.
func childOfStripped(dst, p ident.Path, e ident.Elem) ident.Path {
	dst = append(dst, p...)
	dst[len(dst)-1] = ident.J(dst[len(dst)-1].Bit)
	return append(dst, e)
}

// Naive is Algorithm 1 without balancing: always an immediate child of a
// neighbour. Repeated end-appends grow one level per atom.
type Naive struct{}

// NewID implements Strategy.
func (Naive) NewID(_ *doctree.Tree, dst, p, f ident.Path, at doctree.Gap, d ident.Dis) (ident.Path, doctree.Slot) {
	return naiveID(dst, p, f, at, d)
}

// NewRun implements Strategy: a chain of immediate children (each atom the
// right child of its predecessor's node), which is exactly what replaying
// Algorithm 1 per atom produces.
func (Naive) NewRun(t *doctree.Tree, buf, p, f ident.Path, d ident.Dis, n int) ([]ident.Packed, ident.Path) {
	out := make([]ident.Packed, 0, n)
	for i := 0; i < n; i++ {
		buf, _ = naiveID(buf[:0], p, f, doctree.Gap{}, d)
		out = append(out, ident.Pack(buf))
		p = buf // the next identifier extends this one where it lies
	}
	return out, buf
}

// Name implements Strategy.
func (Naive) Name() string { return "naive" }

// Balanced is the balancing heuristic of Section 4.1: it first reuses empty
// identifier slots between the neighbours; otherwise, when the naive
// identifier would deepen the tree, it grows the height by ⌈log2(h)⌉+1
// levels at once and takes the smallest identifier of the grown subtree,
// leaving the remaining slots for subsequent inserts.
type Balanced struct{}

// NewID implements Strategy.
func (Balanced) NewID(t *doctree.Tree, dst, p, f ident.Path, at doctree.Gap, d ident.Dis) (ident.Path, doctree.Slot) {
	if id, from := t.FreeSlotAfter(dst, p, at.P, d); id != nil {
		return id, from
	}
	base := len(dst)
	id, from := naiveID(dst, p, f, at, d)
	if h := t.Height(); len(id)-base > h {
		if k := growLevels(h); k >= 2 {
			// Reserve the whole grown subtree (Figure 5's empty nodes), so
			// subsequent inserts fill its slots instead of deepening the
			// tree; take the region's smallest identifier now. The region is
			// the identifier with its last element demoted to the slot, and
			// its walk starts at from, the slot that element hangs from.
			last := &id[len(id)-1]
			e := *last
			*last = ident.J(e.Bit)
			err := t.ReserveFrom(from, id[base:], k)
			*last = e
			if err == nil {
				id = grow(id, k) // below from, which stays on the route
			}
		}
	}
	return id, from
}

// growLevels returns the paper's growth amount ⌈log2(levels)⌉+1, where
// levels counts nodes on the deepest path (the paper's height h; our Height
// is the deepest depth, one less). For the Figure 2 tree (three levels)
// this is 3, reproducing the example identifier [1110(0:d)] of Section 4.1.
func growLevels(depth int) int {
	return bits.Len(uint(depth)) + 1 // bits.Len(d) = ⌈log2(d+1)⌉
}

// grow rewrites a naive identifier s+(b:d), where it lies, as the smallest
// identifier of a subtree grown k levels below the same slot:
// s+b+0…0+(0:d). The result stays inside the naive identifier's
// already-validated region. k ≤ 1 leaves the identifier unchanged.
func grow(id ident.Path, k int) ident.Path {
	if k <= 1 {
		return id
	}
	last := &id[len(id)-1]
	d := last.Dis
	*last = ident.J(last.Bit)
	for i := 0; i < k-2; i++ {
		id = append(id, ident.J(0))
	}
	return append(id, ident.M(0, d))
}

// NewRun implements Strategy: the paper's revision-grouping variant
// (Section 5.1, footnote 2): "group all the consecutive inserts of a given
// revision into a minimal sub-tree". The run occupies the canonical complete
// subtree of depth ⌈log2(n+1)⌉ below one allocated slot, every atom carrying
// the same disambiguator (identifiers differ by their bits).
func (Balanced) NewRun(t *doctree.Tree, buf, p, f ident.Path, d ident.Dis, n int) ([]ident.Packed, ident.Path) {
	// Allocate the run's region root: the naive slot (without growth — the
	// run subtree is already the growth), demoted to its structural path.
	root, _ := naiveID(buf[:0], p, f, doctree.Gap{}, d)
	root[len(root)-1] = ident.J(root[len(root)-1].Bit)
	depth := 1
	for capacity(depth) < n {
		depth++
	}
	out := make([]ident.Packed, 0, n)
	buf = fillRun(root, depth, n, d, &out)
	return out, buf
}

// capacity returns 2^depth - 1.
func capacity(depth int) int {
	if depth >= 62 {
		return 1<<62 - 1
	}
	return 1<<depth - 1
}

// fillRun appends the first n infix identifiers of a canonical complete
// subtree rooted at structural path root (ending in a Major element). The
// walk pushes and pops one element on root's own buffer, which it returns
// as it found it, grown if the walk needed room.
func fillRun(root ident.Path, depth, n int, d ident.Dis, out *[]ident.Packed) ident.Path {
	if n == 0 {
		return root
	}
	l := len(root)
	nLeft := min(n, capacity(depth-1))
	root = fillRun(append(root, ident.J(0)), depth-1, nLeft, d, out)[:l]
	if n > nLeft {
		e := root[l-1]
		root[l-1] = ident.M(e.Bit, d)
		*out = append(*out, ident.Pack(root))
		root[l-1] = e
		root = fillRun(append(root, ident.J(1)), depth-1, n-nLeft-1, d, out)[:l]
	}
	return root
}

// Name implements Strategy.
func (Balanced) Name() string { return "balanced" }

var (
	_ Strategy = Naive{}
	_ Strategy = Balanced{}
)
