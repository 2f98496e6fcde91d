package doctree_test

import (
	"encoding/binary"
	"slices"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// ref is the paper's abstract tree (Section 3) as plain pointers, written
// from the paper alone: a node holds sorted minis and two major children, a
// mini a disambiguator, an atom or none, and two children. Every reserved
// node is built, every mini a mini, a run its chain of tombs: whatever
// record forms doctree keeps, it answers as this tree does. An edit stamps
// the node ColdestSubtree sees it at: an insert the atom's, a delete the
// one its discard stops at, a reservation each it makes, a flatten or an
// explode the region's.
type ref struct {
	root   *rnode
	prune  bool   // UDIS: a delete discards (Section 3.3.1); SDIS keeps a tombstone (3.3.2)
	rev    uint32 // the revision clock
	height int    // the deepest level reached since the last flatten
}

type (
	// rnode is a major node; a flattened one (Section 4.2) holds atoms only.
	rnode struct {
		minis []*rmini
		kids  [2]*rnode
		flat  bool
		atoms []string
		stamp uint32 // the last revision that edited here
	}
	// rmini is a mini-node: a live atom or, dead, a tombstone or placeholder.
	rmini struct {
		dis  ident.Dis
		atom string
		live bool
		kids [2]*rnode
	}
	// rslot is a walk position: a node's major slot (m nil) or one of its minis.
	rslot struct {
		n *rnode
		m *rmini
	}
)

func (s rslot) kids() *[2]*rnode {
	if s.m != nil {
		return &s.m.kids
	}
	return &s.n.kids
}

// mini returns n's mini with disambiguator d, made dead if create; or nil.
func (n *rnode) mini(d ident.Dis, create bool) *rmini {
	i, ok := slices.BinarySearchFunc(n.minis, d, func(m *rmini, d ident.Dis) int { return m.dis.Compare(d) })
	if !ok && create {
		n.minis = slices.Insert(n.minis, i, &rmini{dis: d})
	} else if !ok {
		return nil
	}
	return n.minis[i]
}

// walk follows p and returns the slots it passes, the root's first,
// exploding each flat region it looks into (Section 4.2). With create, a
// missing node or mini is made, the mini dead: a replay "must re-create
// empty nodes" a concurrent discard took (3.3.1); without, it gives nil.
func (r *ref) walk(p ident.Path, create bool) []rslot {
	route := []rslot{{n: r.root}}
	for _, e := range p {
		s := route[len(route)-1]
		r.explode(s.n)
		if kids := s.kids(); kids[e.Bit] == nil && create {
			kids[e.Bit] = &rnode{}
		}
		if s = (rslot{n: s.kids()[e.Bit]}); s.n != nil && e.Kind == ident.Mini {
			r.explode(s.n)
			s.m = s.n.mini(e.Dis, create)
		}
		if s.n == nil || e.Kind == ident.Mini && s.m == nil {
			return nil
		}
		route = append(route, s)
	}
	r.height = max(r.height, depth(r.root))
	return route
}

// insert puts atom at id or revives id's tombstone, reporting false if a
// live atom holds id.
func (r *ref) insert(id ident.Path, atom string) bool {
	if s := r.walk(id, true)[len(id)]; !s.m.live {
		s.m.atom, s.m.live, s.n.stamp = atom, true, r.rev
		return true
	}
	return false
}

// recreates reports whether inserting id re-creates a placeholder mini,
// not its last, in a node that exists: a replay whose ancestor mini a
// concurrent discard took (3.3.1). A flat region on the route, which the
// insert explodes first, does not count.
func (r *ref) recreates(id ident.Path) bool {
	s := rslot{n: r.root}
	for _, e := range id[:len(id)-1] {
		if s = (rslot{n: s.kids()[e.Bit]}); s.n == nil || s.n.flat {
			return false
		} else if e.Kind == ident.Mini {
			if s.m = s.n.mini(e.Dis, false); s.m == nil {
				return true
			}
		}
	}
	return false
}

// delete kills id's atom and reports whether it was live. SDIS keeps the
// tombstone; UDIS discards the mini unless it has children, then up the
// route each node so left empty and childless, each dead mini childless.
func (r *ref) delete(id ident.Path) bool {
	route, k := r.walk(id, false), len(id)
	if route == nil || !route[k].m.live {
		return false
	}
	for route[k].m.atom, route[k].m.live = "", false; r.prune && k > 0; k-- {
		s := route[k]
		if s.m != nil && (s.m.live || s.m.kids != [2]*rnode{}) {
			break
		} else if s.m != nil {
			s.n.minis = slices.DeleteFunc(s.n.minis, func(m *rmini) bool { return m == s.m })
		}
		if len(s.n.minis) > 0 || s.n.kids != [2]*rnode{} {
			break
		}
		route[k-1].kids()[id[k-1].Bit] = nil
	}
	route[k].n.stamp = r.rev
	return true
}

// exists reports whether id is used, live or a tombstone. Inside a flat
// region, which it does not explode, an identifier entering it by a mini
// is presumed used if that mini is canonical, one passing it if all are.
func (r *ref) exists(id ident.Path) bool {
	s := rslot{n: r.root}
	for i, e := range id {
		if s.n.flat {
			return !slices.ContainsFunc(id[i:], func(e ident.Elem) bool { return e.Kind == ident.Mini && e.Dis != ident.Canonical })
		}
		if s = (rslot{n: s.kids()[e.Bit]}); s.n == nil {
			return false
		} else if e.Kind == ident.Mini && s.n.flat {
			return e.Dis == ident.Canonical
		} else if e.Kind == ident.Mini {
			if s.m = s.n.mini(e.Dis, false); s.m == nil {
				return false
			}
		}
	}
	return s.m != nil
}

// reserve grows the node path names, created if need be, into the root of
// a complete subtree of levels levels (Section 4.1, Figure 5): the nodes
// it lacks are made empty. A flat region takes no growth.
func (r *ref) reserve(path ident.Path, levels int) {
	s := r.walk(path[:len(path)-1], true)[len(path)-1]
	r.explode(s.n)
	r.grow(s.kids(), path.Last().Bit, max(levels, 1))
	r.height = max(r.height, depth(r.root))
}

func (r *ref) grow(kids *[2]*rnode, bit uint8, levels int) {
	if kids[bit] == nil {
		kids[bit] = &rnode{stamp: r.rev}
	}
	if n := kids[bit]; !n.flat && levels > 1 {
		r.grow(&n.kids, 0, levels-1)
		r.grow(&n.kids, 1, levels-1)
	}
}

// flatten makes the subtree of the node path names a flat region of its
// live atoms (Algorithm 2): its tombstones and identifiers go. It reports
// false if path names no node.
func (r *ref) flatten(path ident.Path) bool {
	if route := r.walk(path, false); route != nil {
		n := route[len(path)].n
		_, atoms := live(n, path)
		*n = rnode{flat: true, atoms: atoms, stamp: r.rev}
		r.height = depth(r.root)
		return true
	}
	return false
}

// explode turns flat region n back into tree form (Algorithm 2): its atoms
// fill, in infix order, the first slots of the smallest complete subtree
// that holds them, each the canonical mini of its node; the root, which
// holds no atom, skips its own slot. The nodes it makes were never edited.
func (r *ref) explode(n *rnode) {
	if n.flat {
		explode(n, n == r.root)
		n.stamp, r.height = r.rev, max(r.height, depth(r.root))
	}
}

func explode(n *rnode, root bool) {
	atoms, levels := n.atoms, 1
	for 1<<levels-1-btoi(root) < len(atoms) {
		levels++
	}
	n.flat, n.atoms = false, nil
	fill(n, atoms, levels, !root)
}

// fill gives the subtree of n (nil: a new one, none for no atoms) and the
// given levels the atoms in infix order, n's own slot only if self.
func fill(n *rnode, atoms []string, levels int, self bool) *rnode {
	if n == nil && len(atoms) == 0 {
		return nil
	} else if n == nil {
		n = &rnode{}
	}
	k := min(len(atoms), 1<<(levels-1)-1)
	n.kids[0], atoms = fill(nil, atoms[:k], levels-1, true), atoms[k:]
	if self && len(atoms) > 0 {
		n.minis, atoms = []*rmini{{atom: atoms[0], live: true}}, atoms[1:]
	}
	n.kids[1] = fill(nil, atoms, levels-1, true)
	return n
}

// depth returns how many levels lie below n.
func depth(n *rnode) (d int) {
	each(n, nil, func(id ident.Path, _ *rnode, _ *rmini) { d = max(d, len(id)) })
	return d
}

// each calls fn, in infix order (Section 3.1), for every mini of n's
// subtree with its identifier and every node of it holding none — an empty
// node or a flat region — with its path; p is n's path.
func each(n *rnode, p ident.Path, fn func(id ident.Path, n *rnode, m *rmini)) {
	if n == nil {
		return
	}
	each(n.kids[0], p.Child(ident.J(0)), fn)
	if len(n.minis) == 0 {
		fn(p, n, nil)
	}
	for _, m := range n.minis {
		id := append(p[:len(p)-1:len(p)-1], ident.M(p.Last().Bit, m.dis))
		each(m.kids[0], id.Child(ident.J(0)), fn)
		fn(id, n, m)
		each(m.kids[1], id.Child(ident.J(1)), fn)
	}
	each(n.kids[1], p.Child(ident.J(1)), fn)
}

// live returns the live atoms of n's subtree, whose path is p, and their
// identifiers in order, a flat region's those its explode would give.
func live(n *rnode, p ident.Path) (ids []ident.Path, atoms []string) {
	each(n, p, func(id ident.Path, n *rnode, m *rmini) {
		if m == nil && n.flat {
			c := &rnode{flat: true, atoms: n.atoms}
			explode(c, len(id) == 0)
			cids, catoms := live(c, id)
			ids, atoms = append(ids, cids...), append(atoms, catoms...)
		} else if m != nil && m.live {
			ids, atoms = append(ids, id), append(atoms, m.atom)
		}
	})
	return ids, atoms
}

// freeSlots maps the document start ("[]") and each used identifier
// outside the flat regions, by String, to the identifier a mini with
// disambiguator d takes in the first empty node after it (Section 4.1's
// reuse of Figure 5's empty nodes), nil if a live atom comes first.
func (r *ref) freeSlots(d ident.Dis) map[string]ident.Path {
	slots, after := map[string]ident.Path{}, []string{"[]"}
	each(r.root, nil, func(id ident.Path, n *rnode, m *rmini) {
		if m != nil && m.live || m == nil && len(n.atoms) > 0 {
			after = after[:0]
		} else if m == nil && !n.flat && len(id) > 0 { // an empty node
			for _, p := range after {
				slots[p] = append(id[:len(id)-1:len(id)-1], ident.M(id.Last().Bit, d))
			}
			after = after[:0]
		}
		if m != nil {
			slots[id.String()], after = nil, append(after, id.String())
		}
	})
	return slots
}

// stats is Stats under cost model c (Section 5.2), the heap aside.
func (r *ref) stats(c ident.Cost) (s doctree.Stats) {
	ids, atoms := live(r.root, nil)
	for i, id := range ids {
		s.DocBytes, s.TotalIDBits, s.MaxIDBits = s.DocBytes+len(atoms[i]), s.TotalIDBits+id.Bits(c), max(s.MaxIDBits, id.Bits(c))
	}
	s.LiveAtoms = len(ids)
	each(r.root, nil, func(id ident.Path, n *rnode, m *rmini) {
		switch {
		case m == nil && n.flat:
			s.FlatAtoms += len(n.atoms)
		case len(id) > 0 && (m == nil || m == n.minis[0]):
			s.Nodes, s.MemBytes = s.Nodes+1, s.MemBytes+12
		}
		if m != nil {
			s.Minis, s.MemBytes = s.Minis+1, s.MemBytes+c.DisBytes()+4+8*btoi(m.kids != [2]*rnode{})
			s.DeadMinis, s.DeadIDBits = s.DeadMinis+btoi(!m.live), s.DeadIDBits+btoi(!m.live)*id.Bits(c)
		}
	})
	return s
}

// coldest is ColdestSubtree over n's subtree, whose path is p: of the
// highest subtrees last edited at or before cutoff with minNodes nodes (the
// root not counted) and a live atom or, unless liveOnly, a tombstone, the
// first in infix order with the most 8·tombstones + nodes (a negative score:
// none); and the subtree's nodes, live atoms, tombstones and last edit.
func coldest(n *rnode, p ident.Path, cutoff int64, minNodes int, liveOnly bool) (best ident.Path, score, nodes, live, dead int, rev int64) {
	if score = -1; n == nil {
		return best, score, 0, 0, 0, 0
	} else if rev = int64(n.stamp); n.flat {
		return best, score, 0, len(n.atoms), 0, rev
	}
	add := func(b ident.Path, bScore, bNodes, bLive, bDead int, bRev int64) {
		nodes, live, dead, rev = nodes+bNodes, live+bLive, dead+bDead, max(rev, bRev)
		if bScore > score {
			best, score = b, bScore
		}
	}
	add(coldest(n.kids[0], p.Child(ident.J(0)), cutoff, minNodes, liveOnly))
	for _, m := range n.minis {
		live, dead = live+btoi(m.live), dead+btoi(!m.live)
		id := append(p[:len(p)-1:len(p)-1], ident.M(p.Last().Bit, m.dis))
		add(coldest(m.kids[0], id.Child(ident.J(0)), cutoff, minNodes, liveOnly))
		add(coldest(m.kids[1], id.Child(ident.J(1)), cutoff, minNodes, liveOnly))
	}
	add(coldest(n.kids[1], p.Child(ident.J(1)), cutoff, minNodes, liveOnly))
	if nodes += btoi(len(p) > 0); rev <= cutoff && nodes >= minNodes && (live > 0 || !liveOnly && dead > 0) {
		best, score = p, 8*dead+nodes
	}
	return best, score, nodes, live, dead, rev
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// snapshot writes the tree as a TDC2 stream (codec.go): the sites, then
// the nodes level by level (Section 5.2), each level in the order its
// parents name them — major left and right, then each mini's.
func (r *ref) snapshot() []byte {
	var sites []ident.SiteID
	each(r.root, nil, func(_ ident.Path, _ *rnode, m *rmini) {
		if m != nil && m.dis != ident.Canonical {
			sites = append(sites, m.dis.Site)
		}
	})
	slices.Sort(sites)
	sites = slices.Compact(sites)
	dst := binary.AppendUvarint([]byte("TDC2"), uint64(len(sites)))
	for _, s := range sites {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	atom := func(a string) { dst = append(binary.AppendUvarint(dst, uint64(len(a))), a...) }
	queue, prev := []*rnode{r.root}, ident.Canonical
	present := func(kids [2]*rnode) (bits byte) {
		for b, k := range kids {
			if k != nil {
				queue, bits = append(queue, k), bits|1<<b
			}
		}
		return bits
	}
	for ; len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		head, shift := present(n.kids), 4
		switch {
		case n.flat:
			dst = binary.AppendUvarint(append(dst, 3<<2), uint64(len(n.atoms)))
			for _, a := range n.atoms {
				atom(a)
			}
		case len(n.minis) == 0:
			dst = append(dst, head)
		case len(n.minis) == 1:
			head |= 1 << 2
		default:
			dst = binary.AppendUvarint(append(dst, head|2<<2), uint64(len(n.minis)))
			head, shift = 0, 0
		}
		for _, m := range n.minis {
			bits := present(m.kids) | byte(4*btoi(!m.live)|8*btoi(m.dis != prev))
			if dst = append(dst, head|bits<<shift); m.dis == ident.Canonical && m.dis != prev {
				dst = append(dst, 0)
			} else if m.dis != prev {
				i, _ := slices.BinarySearch(sites, m.dis.Site)
				dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(i)+1), uint64(m.dis.Counter))
			}
			if prev = m.dis; m.live {
				atom(m.atom)
			}
		}
	}
	return dst
}
