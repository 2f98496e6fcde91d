package doctree

import (
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// ExportMini is the serialisation view of a mini-node.
type ExportMini struct {
	Dis  ident.Dis
	Dead bool
	Atom string
}

// ExportNode is the serialisation view of one breadth-first slot: either
// absent, a flattened region, or a node with its mini-nodes.
type ExportNode struct {
	Present bool
	Flat    []string // non-nil: flattened region content
	IsFlat  bool
	Minis   []ExportMini
}

// ExportBFS visits the tree breadth-first in the on-disk layout order of
// Section 5.2: "nodes are stored from top to bottom, line by line, and
// nodes on the same line are stored left to right". The root is the first
// slot; each present non-flattened node contributes its child slots to the
// next line in a fixed order — major-left, major-right, then each
// mini-node's left and right in disambiguator order. Absent slots are
// emitted (they become the paper's run-length-encoded markers) and
// contribute no further slots.
func (t *Tree) ExportBFS(visit func(ExportNode)) {
	queue := []nodeH{rootH}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h == 0 {
			visit(ExportNode{})
			continue
		}
		n := t.node(h)
		if n.flat != 0 {
			visit(ExportNode{Present: true, IsFlat: true, Flat: t.flats[n.flat-1]})
			continue
		}
		en := ExportNode{Present: true, Minis: []ExportMini{}}
		queue = append(queue, n.kids[0], n.kids[1])
		for mh := n.first; mh != 0; {
			m := t.mini(mh)
			en.Minis = append(en.Minis, ExportMini{Dis: m.dis(), Dead: m.dead, Atom: m.atom})
			queue = append(queue, m.kids[0], m.kids[1])
			mh = m.next
		}
		visit(en)
	}
}

// BuildFromBFS reconstructs a tree from the slot stream produced by
// ExportBFS. next is called once per slot in the same order. A stream that
// claims more nodes, mini-nodes or atoms than a tree can address fails with
// an error wrapping ErrFull.
func BuildFromBFS(next func() (ExportNode, error)) (*Tree, error) {
	return buildFromBFS(next, maxRecords)
}

func buildFromBFS(next func() (ExportNode, error), limit uint32) (*Tree, error) {
	t := New()
	t.limit = limit
	en, err := next()
	if err != nil {
		return nil, fmt.Errorf("doctree: import root: %w", err)
	}
	if !en.Present {
		return t, nil
	}
	var queue []slot // each entry stands for its bit-0 slot, then its bit-1 slot
	fill := func(h nodeH, en ExportNode) error {
		n := t.node(h)
		if en.IsFlat {
			t.setFlat(n, append([]string(nil), en.Flat...))
			return nil
		}
		if err := t.room(0, len(en.Minis)); err != nil {
			return err
		}
		for _, em := range en.Minis {
			if em.Dis.Site > ident.MaxSiteID {
				return fmt.Errorf("disambiguator %v out of range", em.Dis)
			}
			m := t.mini(t.insertMini(n, em.Dis))
			m.dead, m.atom = em.Dead, em.Atom
		}
		queue = append(queue, slot{node: h})
		for mh := n.first; mh != 0; mh = t.mini(mh).next {
			queue = append(queue, slot{node: h, mini: mh})
		}
		return nil
	}
	if err := fill(rootH, en); err != nil {
		return nil, fmt.Errorf("doctree: import root: %w", err)
	}
	for i := 0; i < 2*len(queue); i++ {
		ref, bit := queue[i/2], uint8(i%2)
		en, err := next()
		if err == nil && en.Present {
			if err = t.room(1, 0); err == nil {
				h := t.newNode(ref, bit)
				t.kids(ref)[bit] = h
				err = fill(h, en)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("doctree: import slot %d: %w", i, err)
		}
	}
	if live, _, _ := t.recount(rootH); live > uint64(limit) {
		return nil, fmt.Errorf("doctree: import of %d atoms: %w", live, ErrFull)
	}
	t.height = t.maxDepth(rootH, 0)
	return t, nil
}

// recount rebuilds the cached live/node/tombstone/empty-slot counts
// bottom-up after an import. The sums are returned wide: a stream of huge
// flat regions can claim more atoms than a 32-bit counter holds, and the
// caller rejects that before anyone reads the truncated counters.
func (t *Tree) recount(h nodeH) (live, nodes, dead uint64) {
	if h == 0 {
		return 0, 0, 0
	}
	n := t.node(h)
	if n.flat != 0 {
		live = uint64(len(t.flats[n.flat-1]))
		n.live, n.nodes, n.dead, n.emptyN = uint32(live), 0, 0, 0
		return live, 0, 0
	}
	add := func(c nodeH) {
		l, nn, d := t.recount(c)
		live, nodes, dead = live+l, nodes+nn, dead+d
		n.emptyN += t.node(c).emptyN
	}
	n.emptyN = 0
	add(n.kids[0])
	add(n.kids[1])
	for mh := n.first; mh != 0; {
		m := t.mini(mh)
		add(m.kids[0])
		add(m.kids[1])
		if m.dead {
			dead++
		} else {
			live++
		}
		mh = m.next
	}
	if h != rootH {
		nodes++
		if n.empty() {
			n.emptyN++
		}
	}
	n.live, n.nodes, n.dead = uint32(live), uint32(nodes), uint32(dead)
	return live, nodes, dead
}
