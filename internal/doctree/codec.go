package doctree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/treedoc/treedoc/internal/ident"
)

// The snapshot stream keeps Section 5.2's layout — "nodes are stored from top
// to bottom, line by line, and nodes on the same line are stored left to
// right" — but a missing node is two clear bits in its parent instead of a
// marker in the line, so the stream holds present nodes only and a node that
// carries one tombstone is one byte:
//
//	stream = "TDC2" sites node...    the root, then each level's nodes in the order
//	                                 their parents promised them: major left and
//	                                 right, then each mini's, in mini order
//	sites  = n site...               strictly ascending: the sites of the tree's
//	                                 non-canonical disambiguators, each used
//	node   = head                    bits 0-1 left/right child present, bits 2-3
//	                                 shape, bits 4-7 the mini bits of shape one
//	         shape empty: nothing    shape one: tail
//	         shape many: n≥2, n × (mini-bits byte, tail), ascending
//	         shape flat: n, n × atom (a region has no children)
//	mini   = bits 0-1 left/right child present, bit 2 dead, bit 3 dis follows
//	tail   = [dis] [atom]            dis only when it differs from the previous
//	                                 mini's in the stream (canonical before the
//	                                 first); atom unless dead
//	dis    = 0 (canonical) | 1 + index into sites, counter
//	atom   = length, bytes
//
// Every n, index, counter and length is a uvarint. A tree has exactly one
// stream: whatever can be spelled two ways is refused in all but one.
const snapMagic = "TDC2"

const (
	shapeEmpty = iota << 2
	shapeOne
	shapeMany
	shapeFlat
	shapeMask = shapeFlat

	miniDead   = 1 << 2
	miniHasDis = 1 << 3

	// promised stands in a child link the stream has announced and not yet
	// delivered: no node's child is the root, so its handle is free to mean it.
	promised = rootH
)

// queued is an entry of the encoder's level-order queue: node h (of a run,
// member member), or with below ≥ 1 the 2^below reserved nodes that many
// levels under h, which sit in a row on their level.
type queued struct {
	h      nodeH
	below  uint8
	member uint8
}

// present queues a slot's children, left first, and sets bits 0 and 1 for them.
func present(queue []queued, kids [2]nodeH) (_ []queued, bits byte) {
	if kids[0] != 0 {
		queue, bits = append(queue, queued{h: kids[0]}), 1
	}
	if kids[1] != 0 {
		queue, bits = append(queue, queued{h: kids[1]}), bits|2
	}
	return queue, bits
}

// AppendSnapshot appends the tree's snapshot stream to dst. It reads the
// slabs through a queue of node handles, one allocation sized up front: a
// reserved subtree of r levels takes r entries, one per level, and writes
// its nodes as the empty nodes they stand for; a run, one per member.
func (t *Tree) AppendSnapshot(dst []byte) []byte {
	// rank maps each site index a non-canonical disambiguator names to its table entry.
	var small [64]uint32 // a table this small takes no allocation
	entries, rank := int(t.nodes.used()), slices.Grow(small[:0], len(t.sites))[:len(t.sites)]
	for h := uint32(1); h <= t.nodes.n; h++ { // a free record is zero: no count, no solo
		n := t.nodes.at(h)
		if entries += int(n.reserve) + n.runLen() - 1; n.solo() {
			rank[n.site] = 1
		}
	}
	rank[0] = 0 // a solo's counter is 0: at site 0 it is canonical, as a free (zero) mini record is
	for h := uint32(1); h <= t.minis.n; h++ {
		if m := t.minis.at(h); m.counter|uint32(m.site) != 0 {
			rank[m.site] = 1
		}
	}
	dst, at, k := append(dst, snapMagic...), len(dst)+len(snapMagic), uint32(0)
	for _, i := range t.order { // the table, ascending; then its length before it
		if rank[i] != 0 {
			k, rank[i] = k+1, k+1
			dst = binary.AppendUvarint(dst, uint64(t.sites[i]))
		}
	}
	var c [binary.MaxVarintLen32]byte
	dst = slices.Insert(dst, at, c[:binary.PutUvarint(c[:], uint64(k))]...)
	// No closures over dst or the queue: this runs on the engine's actor.
	var prev mini // the previous mini's disambiguator: canonical before the first
	queue := append(make([]queued, 0, entries), queued{h: rootH})
	for i := 0; i < len(queue); i++ {
		q := queue[i]
		n := t.node(q.h)
		if q.below != 0 {
			head := byte(shapeEmpty)
			if q.below < n.reserve {
				head, queue = 3, append(queue, queued{h: q.h, below: q.below + 1})
			}
			for range 1 << q.below {
				dst = append(dst, head)
			}
			continue
		}
		if n.flat() {
			dst = binary.AppendUvarint(append(dst, shapeFlat), uint64(n.live))
			for a := n.u; a < n.u+n.live; a++ {
				b := t.atoms.text(a)
				dst = append(binary.AppendUvarint(dst, uint64(len(b))), b...)
			}
			continue
		}
		var head, bits byte
		if next := int(q.member) + 1; next < n.runLen() { // one child: the next member
			head, queue = 1<<n.side(next), append(queue, queued{h: q.h, member: q.member + 1})
		} else if queue, head = present(queue, n.kids); n.reserve != 0 {
			head, queue = 3, append(queue, queued{h: q.h, below: 1})
		}
		// A solo is written as the one mini it stands for, built here.
		shift, mh, solo := 0, n.minis(), mini{atom: n.liveAtom(), site: n.site}
		switch {
		case n.solo():
			head, shift, mh = head|shapeOne, 4, soloMini
		case mh == 0:
			dst = append(dst, head|shapeEmpty)
			continue
		case t.mini(mh).next == 0:
			head, shift = head|shapeOne, 4
		default:
			count := 0
			for ; mh != 0; mh = t.mini(mh).next {
				count++
			}
			dst = binary.AppendUvarint(append(dst, head|shapeMany), uint64(count))
			head, mh = 0, n.minis()
		}
		for mh != 0 {
			m := &solo
			if mh != soloMini {
				m = t.mini(mh)
			}
			queue, bits = present(queue, t.kids(slot{q.h, mh}))
			same := m.counter == prev.counter && m.site == prev.site
			if m.atom == 0 {
				bits |= miniDead
			}
			if !same {
				bits |= miniHasDis
			}
			dst = append(dst, head|bits<<shift)
			if !same && m.counter|uint32(m.site) == 0 {
				dst = append(dst, 0)
			} else if !same {
				dst = binary.AppendUvarint(dst, uint64(rank[m.site]))
				dst = binary.AppendUvarint(dst, uint64(m.counter))
			}
			prev.counter, prev.site = m.counter, m.site
			if m.atom != 0 {
				a := t.atoms.text(m.atom)
				dst = append(binary.AppendUvarint(dst, uint64(len(a))), a...)
			}
			mh = m.next
		}
	}
	return dst
}

// MaxCounter returns the highest disambiguator counter site holds in the
// tree's mini-nodes (0 for none) by an allocation-free scan of the mini slab.
func (t *Tree) MaxCounter(site ident.SiteID) (max uint32) {
	i := t.index(site, false)
	for h := uint32(1); h <= t.minis.n; h++ {
		if m := t.minis.at(h); m.counter > max && int(m.site) == i {
			max = m.counter
		}
	}
	return max
}

// snapDecoder reads a snapshot stream into a fresh tree. The first failure
// sticks: later reads return zeros, and the loops below stop on err.
type snapDecoder struct {
	t    *Tree
	buf  []byte
	off  int
	err  error
	prev ident.Dis // the previous mini's disambiguator
	live uint64    // atoms read so far, wide: the tree's counters are 32-bit
	// sites is the header's table; used marks the entries a disambiguator
	// has named, since a table entry nothing names is a second spelling.
	sites []ident.SiteID
	used  []bool
	add   func([]byte) uint32 // stores an atom at the next handle (atomStore.load)
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("doctree: snapshot byte %d: "+format, append([]any{d.off}, args...)...)
	}
}

func (d *snapDecoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("truncated: a promised node or mini-node is missing")
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

func (d *snapDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if d.err != nil || n <= 0 || n > 1 && d.buf[d.off+n-1] == 0 { // a zero top group is a second spelling
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// count reads how many of something follow. Each costs at least a byte, so a
// count beyond the bytes left is corrupt; refused here, it sizes no allocation.
func (d *snapDecoder) count(what string) int {
	v := d.uvarint()
	if v > uint64(len(d.buf)-d.off) {
		d.fail("%s count %d exceeds the %d bytes left", what, v, len(d.buf)-d.off)
		return 0
	}
	return int(v)
}

// room is Tree.room as a decoding step.
func (d *snapDecoder) room(nodes, minis int) {
	if err := d.t.room(nodes, minis, 0); err != nil {
		d.fail("%w", err)
	}
}

func (d *snapDecoder) atom() []byte {
	n := d.count("atom byte")
	if d.live++; d.live > uint64(d.t.limit) {
		d.fail("more than %d atoms: %w", d.t.limit, ErrFull)
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

// DecodeSnapshot rebuilds the tree AppendSnapshot wrote. A snapshot is an
// external input (disk, network): every count is bounded by the bytes left
// before anything is sized by it, every invariant Check states is established
// by construction or tested as the stream is read, and a tree spelled any
// way but AppendSnapshot's is refused — so an accepted stream yields a tree
// that passes Check and encodes back to the same bytes, its site table the
// header's. A stream claiming more records, atoms or sites than handles and
// indices can address fails wrapping ErrFull.
func DecodeSnapshot(data []byte) (*Tree, error) { return decodeSnapshot(data, maxRecords) }

func decodeSnapshot(data []byte, limit uint32) (*Tree, error) {
	if len(data) < len(snapMagic) || string(data[:3]) != snapMagic[:3] {
		return nil, fmt.Errorf("doctree: not a snapshot (bad magic)")
	}
	if v := string(data[:len(snapMagic)]); v != snapMagic {
		return nil, fmt.Errorf("doctree: snapshot format %q is not supported, only %s", v, snapMagic)
	}
	t := New()
	t.limit = limit
	d := &snapDecoder{t: t, buf: data, off: len(snapMagic)}
	if n, _ := binary.Uvarint(data[d.off:]); n >= uint64(t.siteLimit) {
		d.fail("site count %d past what an index names: %w", n, ErrFull)
	}
	n := d.count("site")
	d.sites, d.used = make([]ident.SiteID, n), make([]bool, n)
	for i := range d.sites {
		if d.sites[i] = ident.SiteID(d.uvarint()); d.sites[i] > ident.MaxSiteID || i > 0 && d.sites[i] <= d.sites[i-1] {
			d.fail("site table entry %d out of range or out of order", d.sites[i])
		} else if d.err == nil {
			t.index(d.sites[i], true) // the tree's table is the header's, in its order
		}
	}
	// A level-order walk: reading a node for every link a level's records
	// promise delivers the next level left to right. A tomb joins its
	// parent's run as it is read (runs): a level holds a run per member.
	t.atoms.load(func(add func([]byte) uint32) {
		d.add = add
		d.node(rootH)
		for level := append(make([]nodeH, 0, 64), rootH); d.err == nil && len(level) > 0; t.height++ {
			next := len(level)
			for _, h := range level[:next] {
				level = d.children(level, slot{node: h})
				for mh := t.node(h).minis(); mh != 0; mh = t.mini(mh).next {
					level = d.children(level, slot{h, mh})
				}
			}
			level = level[:copy(level, level[next:])]
		}
	})
	if d.off != len(data) {
		d.fail("%d trailing bytes", len(data)-d.off)
	}
	if i := slices.Index(d.used, false); i >= 0 {
		d.fail("site table entry %d is never used", d.sites[i])
	}
	if d.err != nil {
		return nil, d.err
	}
	// A child's handle is above its parent's (the next node read takes a
	// handle a run absorbed), so one pass from the last node down has every
	// subtree summed before it is added to its parent.
	for h := nodeH(t.nodes.n); h > rootH; h-- {
		n := t.node(h)
		p := t.node(n.parent)
		p.live += n.live
		p.flags |= n.flags & hasEmptyF
	}
	t.height--
	return t, nil
}

// children reads and queues the node of every promised link in slot s.
func (d *snapDecoder) children(queue []nodeH, s slot) []nodeH {
	for bit, k := range d.t.kids(s) {
		if k != promised {
			continue
		}
		if d.room(1, 0); d.err == nil {
			k = d.t.newNode(s, uint8(bit))
			d.t.setKid(s, uint8(bit), k)
			if d.node(k); d.err == nil && s.mini == 0 && d.t.runs(s.node, k) {
				d.t.absorb(s.node, k)
				k = s.node
			}
			queue = append(queue, k)
		}
	}
	return queue
}

// promise turns presence bits 0 and 1 into child links awaiting their nodes.
func promise(bits byte) [2]nodeH {
	return [2]nodeH{nodeH(bits & 1), nodeH(bits >> 1 & 1)} // promised == 1
}

// node reads one node's head and contents into the fresh record h, leaving
// in its counters what the node itself contributes.
func (d *snapDecoder) node(h nodeH) {
	head := d.byte()
	n := d.t.node(h)
	n.kids = promise(head)
	shape, count := head&shapeMask, 1
	if shape != shapeOne && head>>4 != 0 || shape == shapeFlat && head != shapeFlat {
		d.fail("head %#x sets bits its shape does not use", head)
	}
	switch shape {
	case shapeEmpty:
		if h != rootH { // the root is never a free slot
			n.flags |= hasEmptyF
		}
		return
	case shapeFlat:
		n.flags, n.live = n.flags|flatF, uint32(d.count("flat atom"))
		if n.live > 0 && d.err == nil {
			n.u = d.add(d.atom()) // the run's first handle
		}
		for i := uint32(1); i < n.live && d.err == nil; i++ {
			d.add(d.atom())
		}
		return
	case shapeMany:
		if count = d.count("mini"); count < 2 {
			d.fail("a many-mini node of %d: not the one spelling", count)
		}
	}
	if h == rootH {
		d.fail("the root holds a mini-node")
	}
	d.room(0, count)
	link, bits := (*miniH)(&n.u), head>>4
	for i := 0; i < count && d.err == nil; i++ {
		last := d.prev
		if shape == shapeMany {
			if bits = d.byte(); bits>>4 != 0 {
				d.fail("mini byte %#x sets unused bits", bits)
			}
		}
		if bits&miniHasDis != 0 {
			d.dis()
		}
		if i > 0 && last.Compare(d.prev) >= 0 {
			d.fail("mini-nodes out of order: %s then %s", last, d.prev)
		}
		atom := &n.u
		if shape == shapeOne && bits&3 == 0 && d.prev.Counter == 0 {
			n.site, n.flags = uint16(d.t.index(d.prev.Site, true)), n.flags|soloF // no record
		} else {
			mh := miniH(d.t.minis.alloc())
			m := d.t.mini(mh)
			*link, link, atom = mh, &m.next, &m.atom
			m.counter, m.site = d.prev.Counter, uint16(d.t.index(d.prev.Site, true))
			for bit, k := range promise(bits) {
				if k != 0 {
					d.t.setKid(slot{h, mh}, uint8(bit), k)
				}
			}
		}
		if bits&miniDead == 0 {
			*atom = d.add(d.atom())
			n.live++
		}
	}
}

// dis reads a written disambiguator into d.prev; one that repeats the
// previous mini's should have been left out.
func (d *snapDecoder) dis() {
	var next ident.Dis
	if k := d.uvarint(); k > uint64(len(d.sites)) {
		d.fail("site index %d past the table of %d", k-1, len(d.sites))
	} else if k > 0 {
		c := d.uvarint()
		if c > 1<<32-1 {
			d.fail("disambiguator counter beyond 32 bits")
		}
		next = ident.Dis{Counter: uint32(c), Site: d.sites[k-1]}
		d.used[k-1] = true
		if next == ident.Canonical {
			d.fail("canonical disambiguator spelled through the site table")
		}
	}
	if next == d.prev {
		d.fail("disambiguator %s repeats the previous mini's: the one spelling leaves it out", next)
	}
	d.prev = next
}
