package doctree

import "github.com/treedoc/treedoc/internal/ident"

// maxRun is the most members a run holds: a chain of one site's solo tombs,
// each but the last the parent of the next alone, in one record (a
// path-compressed edge) that holds the top member's parent link and side
// bit, the last's children, reserve and counters, the site, and in u
// the count (low 5 bits) and, above it, the lower members' 27 side bits.
const maxRun = 28

// runLen returns the levels n spans: its run's members, or 1.
func (n *node) runLen() int { return max(1, int(n.u&31)*int(n.flags&runF/runF)) }

// side returns the side bit of member i ≥ 1 of n's run.
func (n *node) side(i int) uint8 { return uint8(n.u >> (4 + i) & 1) }

// shape makes solo tomb n a run of count members with side bits sides.
func (n *node) shape(count int, sides uint32) {
	if n.u, n.flags = uint32(count)|sides<<5, n.flags|runF; count == 1 {
		n.u, n.flags = 0, n.flags&^runF
	}
}

// appendRun appends the elements leading from n's top member to its last.
func (n *node) appendRun(dst ident.Path) ident.Path {
	for i := 1; n.run() && i < int(n.u&31); i++ {
		dst = append(dst, ident.J(n.side(i)))
	}
	return dst
}

// hop follows p, whose element i reaches n's top member, down n's run to
// the member j where p ends or turns away, reached by element i+j.
func (n *node) hop(p ident.Path, i int) (j int) {
	for k := n.runLen(); j+1 < k && i+j+1 < len(p) && p[i+j].Kind == ident.Major && p[i+j+1].Bit == n.side(j+1); j++ {
	}
	return j
}

// join makes h, a solo that just died, one run with the tombs above and
// below it where runs allows, reporting whether it joined either. A run's
// stamp is its newest member's, so the run below joins only if as recent,
// or it would read hot (coldWalk).
func (t *Tree) join(h nodeH) (joined bool) {
	n := t.node(h)
	if c := max(n.kids[0], n.kids[1]); t.runs(h, c) && t.stamp(c) == t.stamp(h) {
		t.absorb(h, c)
		joined = true
	}
	if t.runs(n.parent, h) {
		t.absorb(n.parent, h)
		joined = true
	}
	return joined
}

// runs reports whether c is h's only child, below its major slot, and the
// two can be one run.
func (t *Tree) runs(h, c nodeH) bool {
	n, m := t.node(h), t.node(c)
	return n.kids[m.bit()] == c && n.kids[1-m.bit()] == 0 && !m.onMini() && n.solo() && m.solo() && n.liveAtom()|m.liveAtom() == 0 &&
		n.site == m.site && n.runLen()+m.runLen() <= maxRun
}

// absorb makes c, the only child of h, the last members of h's run.
func (t *Tree) absorb(h, c nodeH) {
	n, m := t.node(h), t.node(c)
	k := n.runLen()
	n.shape(k+m.runLen(), n.u>>5|uint32(m.bit())<<(k-1)|m.u>>5<<k)
	n.kids, n.reserve = m.kids, m.reserve
	t.setStamp(h, max(t.stamp(h), t.stamp(c)))
	t.adopt(h)
	t.cacheDrop()
	t.nodes.release(uint32(c))
}

// adopt points the links of h's major children, unless promised, at h.
func (t *Tree) adopt(h nodeH) {
	for _, c := range t.node(h).kids {
		if c > promised {
			t.node(c).parent = h
		}
	}
}

// cut ends run h at member j, before its last, returning a new record for
// the members after j. The caller has made room.
func (t *Tree) cut(h nodeH, j int) nodeH {
	l := nodeH(t.nodes.alloc())
	n, m := t.node(h), t.node(l)
	k, sides := n.runLen(), n.u>>5
	*m = *n
	t.setStamp(l, t.stamp(h))
	m.parent, m.flags = h, m.flags&^(onMiniF|1)|uint8(sides>>j&1)
	m.shape(k-j-1, sides>>(j+1))
	t.adopt(l)
	n.kids, n.reserve = [2]nodeH{}, 0
	n.kids[m.bit()] = l
	n.shape(j+1, sides&(1<<j-1))
	return l
}

// enter passes a walk that builds p, whose element i reaches h, down h's
// run to where p stops or turns away (hop), cutting the run so that member
// is last in it, or its own record if p takes its mini.
func (t *Tree) enter(h nodeH, p ident.Path, i int) (nodeH, int) {
	n := t.node(h)
	j := n.hop(p, i)
	if j+1 < n.runLen() {
		t.cut(h, j)
	}
	if p[i+j].Kind == ident.Mini && j > 0 {
		h = t.cut(h, j-1)
	}
	return h, i + j
}
