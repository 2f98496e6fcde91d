package doctree

import (
	"slices"

	"github.com/treedoc/treedoc/internal/ident"
)

// Reserve is ReserveFrom resuming from the walk cache.
func (t *Tree) Reserve(path ident.Path, levels int) error {
	return t.ReserveFrom(Slot{}, path, levels)
}

// Records returns the node records the tree holds.
func (t *Tree) Records() int { return int(t.nodes.used()) }

// MiniOf returns the handle of the mini id names and whether it is flagged
// with children; 0 and false if id names none, and 2³²−1 (soloMini) and
// false if it names a solo. It explodes nothing.
func (t *Tree) MiniOf(id ident.Path) (uint32, bool) {
	s, used := t.ExistsFrom(Slot{}, id)
	if !used || s.at.mini == 0 {
		return 0, false
	}
	return uint32(s.at.mini), s.at.mini != soloMini && t.mini(s.at.mini).hasKids
}

// SetMiniChildEntry writes mini h's entry in the mini-child table as it is
// given, or deletes it for nil, and leaves the mini's flag alone: a
// hand-broken table for the tests that Check refuses one.
func (t *Tree) SetMiniChildEntry(h uint32, kids *[2]uint32) {
	if kids == nil {
		delete(t.mkids, miniH(h))
		return
	}
	if t.mkids == nil {
		t.mkids = map[miniH][2]nodeH{}
	}
	t.mkids[miniH(h)] = [2]nodeH{nodeH(kids[0]), nodeH(kids[1])}
}

// SetOnMini flags the node the structural path designates as hanging from
// a mini, or not, and nothing else.
func (t *Tree) SetOnMini(path ident.Path, on bool) {
	if s := routeSlot(t, path); s.at.node != 0 {
		n := t.node(s.at.node)
		if n.flags &^= onMiniF; on {
			n.flags |= onMiniF
		}
	}
}

// CacheWalk records a walk to id, which lies at at, in the walk cache.
func (t *Tree) CacheWalk(id ident.Path, at Slot) { t.cacheWalk(id, at.at) }

// MaxRun is the most members a run holds.
const MaxRun = maxRun

// Runs returns the runs the tree holds, their members and the most one
// holds.
func (t *Tree) Runs() (runs, members, longest int) {
	for h := uint32(1); h <= t.nodes.n; h++ {
		if n := t.nodes.at(h); n.run() {
			runs, members, longest = runs+1, members+n.runLen(), max(longest, n.runLen())
		}
	}
	return runs, members, longest
}

// RunMember returns the index of the run member an identifier or a
// structural path ends at and the run's members; 0 and 0 if it ends at
// none. It explodes nothing.
func (t *Tree) RunMember(id ident.Path) (j, k int) {
	s := slot{node: rootH}
	for i := 0; i < len(id); i++ {
		e := id[i]
		next := t.kids(s)[e.Bit]
		if next == 0 || t.node(next).flat() {
			return 0, 0
		}
		if n := t.node(next); n.run() {
			if j = n.hop(id, i); i+j+1 == len(id) {
				return j, n.runLen()
			} else if j+1 < n.runLen() {
				return 0, 0
			}
			i += j
			e = id[i]
		}
		if s = (slot{node: next}); e.Kind == ident.Mini {
			if s.mini = t.findMini(t.node(next), e.Dis); s.mini == 0 {
				return 0, 0
			}
		}
	}
	return 0, 0
}

// AboveRun reports whether s is the slot above a run that ExistsFrom
// gives for one of the run's tombs.
func (s Slot) AboveRun() bool { return s.run }

// SetRun flags the node the structural path designates as a solo tomb
// standing for a run of count members with side bits sides, and changes
// nothing else: a hand-broken run for the tests that Check refuses one.
func (t *Tree) SetRun(path ident.Path, count int, sides uint32) {
	n := t.routeNode(path)
	n.flags |= runF | soloF
	n.u = uint32(count) | sides<<5
}

// EmptyNodes returns the empty nodes the tree holds records for.
func (t *Tree) EmptyNodes() (empty int) {
	for h := uint32(2); h <= t.nodes.n; h++ { // a free record is zero, and has no parent
		if n := t.nodes.at(h); n.parent != 0 && n.empty() {
			empty++
		}
	}
	return empty
}

// SetStamp sets the revision stamp of the node the structural path
// designates, and nothing else.
func (t *Tree) SetStamp(path ident.Path, rev uint32) { t.setStamp(t.routeHandle(path), rev) }

// StampChunks returns the stamp chunks the tree holds.
func (t *Tree) StampChunks() (n int) {
	for _, c := range t.stamps {
		if c != nil {
			n++
		}
	}
	return n
}

// routeNode returns the node the structural path designates: for a path
// ending among a run's members, the run's.
func (t *Tree) routeNode(path ident.Path) *node { return t.node(t.routeHandle(path)) }

// routeHandle returns the handle of the node routeNode returns.
func (t *Tree) routeHandle(path ident.Path) nodeH {
	s := slot{node: rootH}
	for i := 0; i < len(path); i++ {
		e := path[i]
		s = slot{node: t.kids(s)[e.Bit]}
		if n := t.node(s.node); n.run() {
			if i += n.hop(path, i); i+1 == len(path) {
				break
			}
			e = path[i]
		}
		if e.Kind == ident.Mini {
			s.mini = t.findMini(t.node(s.node), e.Dis)
		}
	}
	return s.node
}

// SetSolo flags the node the structural path designates, which may be
// flat, as solo, holding atom handle a, and changes nothing else: a
// hand-broken solo for the tests that Check refuses one.
func (t *Tree) SetSolo(path ident.Path, a uint32) {
	n := t.routeNode(path)
	n.flags |= soloF
	n.u = a
}

// AtomHandle returns the atom handle of the live atom id names.
func (t *Tree) AtomHandle(id ident.Path) uint32 {
	s, _ := t.walkMini(id)
	return *t.atomOf(s)
}

// FreeAtomHandle returns a handle on the atom store's free stack.
func (t *Tree) FreeAtomHandle() uint32 { return t.atoms.free[0] }

// SetHasEmpty sets or clears the hasEmpty bit of the node the structural
// path designates, and changes nothing else.
func (t *Tree) SetHasEmpty(path ident.Path, on bool) {
	n := t.routeNode(path)
	if n.flags &^= hasEmptyF; on {
		n.flags |= hasEmptyF
	}
}

// HasEmpty reports the hasEmpty bit of the node the structural path
// designates.
func (t *Tree) HasEmpty(path ident.Path) bool { return t.routeNode(path).hasEmpty() }

// NodeHandle returns the handle of the node the structural path
// designates, 0 for none.
func (t *Tree) NodeHandle(path ident.Path) uint32 { return uint32(routeSlot(t, path).at.node) }

// SetDis sets mini h's disambiguator, and changes nothing else: a
// hand-broken chain order for the tests that Check refuses one.
func (t *Tree) SetDis(h uint32, d ident.Dis) {
	m := t.mini(miniH(h))
	m.counter, m.site = d.Counter, uint16(t.index(d.Site, true))
}

// SetReserve sets the reserve count of the node the structural path
// designates, and changes nothing else.
func (t *Tree) SetReserve(path ident.Path, levels uint8) { t.routeNode(path).reserve = levels }

// AddReserved adds d to the tree's count of reserved nodes, and changes
// nothing else.
func (t *Tree) AddReserved(d int) { t.reserved += uint32(d) }

// SetSiteLimit sets the most entries the tree's site table may hold, site
// 0's included: a lower limit than the 16-bit index allows, for tests.
func (t *Tree) SetSiteLimit(n int) { t.siteLimit = n }

// Sites returns a copy of the tree's site table, by index.
func (t *Tree) Sites() []ident.SiteID { return slices.Clone(t.sites) }
