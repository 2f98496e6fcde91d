package doctree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

// The free-slot search as it stood before it became a forward scan: a walk
// down from the root that prunes every subtree whose identifier region
// lies outside (p, f), re-comparing both bounds against the whole prefix
// at each node, and takes the first empty node strictly between them. It
// is kept as the differential oracle, without the visit budget that used
// to cap it: FreeSlotAfter must find what it finds at every gap. visits
// counts the nodes it entered.
func (t *Tree) freeMiniBetweenOracle(p, f ident.Path, d ident.Dis) (id ident.Path, visits int) {
	s := &oracleSearch{t: t, p: p, f: f}
	s.prefix = make(ident.Path, 0, min(t.height+4, 64)) // deep trees grow the prefix on demand
	if s.walk(rootH) == 0 {
		return nil, s.visits
	}
	id = s.prefix.Clone()
	id[len(id)-1] = ident.M(id[len(id)-1].Bit, d)
	return id, s.visits
}

// oracleSearch is the in-order free-slot walk. prefix always holds the
// structural path of the node being visited (empty at the root); when the
// walk succeeds it holds the found node's path.
type oracleSearch struct {
	t      *Tree
	p, f   ident.Path
	prefix ident.Path
	visits int
}

// walk searches n's subtree in infix order, returning the first empty node
// whose mini position lies strictly between the bounds.
func (s *oracleSearch) walk(h nodeH) nodeH {
	n := s.t.node(h)
	if n.flat() || !n.hasEmpty() {
		return 0 // a nil child reads no hasEmpty bit
	}
	s.visits++
	// Prune subtrees entirely outside the open interval.
	if s.p != nil && ident.RegionCompare(s.p, s.prefix) > 0 {
		return 0 // everything in n's region sorts <= p
	}
	if s.f != nil && ident.RegionCompare(s.f, s.prefix) < 0 {
		return 0 // everything in n's region sorts >= f
	}
	if got := s.into(n.kids[0], ident.J(0)); got != 0 {
		return got
	}
	if h != rootH && n.empty() {
		// The would-be mini position: the node's identifier with a mini
		// selection. Disambiguators only order minis within one node and n
		// has none, so any disambiguator gives the same betweenness.
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, ident.Canonical)
		ok := ident.Between(s.p, s.prefix, s.f)
		s.prefix[last] = saved
		if ok {
			return h
		}
	}
	// The root holds no minis, so prefix is non-empty inside the loop.
	for mh := n.minis(); mh != 0; {
		m := s.t.mini(mh)
		// Descend through the mini: the entry element gains its dis.
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis())
		kids := s.t.kids(slot{h, mh})
		if got := s.into(kids[0], ident.J(0)); got != 0 {
			return got
		}
		if got := s.into(kids[1], ident.J(1)); got != 0 {
			return got
		}
		s.prefix[last] = saved
		mh = m.next
	}
	return s.into(n.kids[1], ident.J(1))
}

// into pushes the child element — of a run, the elements down to its last
// member, which alone can hold an empty node below it — walks the child,
// and pops on failure. On success the prefix is left pointing at the found
// node.
func (s *oracleSearch) into(h nodeH, e ident.Elem) nodeH {
	k := len(s.prefix)
	s.prefix = s.t.node(h).appendRun(append(s.prefix, e))
	if got := s.walk(h); got != 0 {
		return got
	}
	s.prefix = s.prefix[:k]
	return 0
}

// routeSlot walks path — an identifier, or a structural path ending in a
// Major element — from the root without exploding anything and returns the
// Slot it reaches — for a path ending among a run's members, the slot
// above the run, flagged run — or the zero Slot if a step is missing.
func routeSlot(tr *Tree, path ident.Path) Slot {
	cur := slot{node: rootH}
	for i := 0; i < len(path); i++ {
		top, e := i, path[i]
		next := tr.kids(cur)[e.Bit]
		if next == 0 || tr.node(next).flat() {
			return Slot{}
		}
		if n := tr.node(next); n.run() {
			j := n.hop(path, i)
			if i += j; path[i].Kind == ident.Mini || j+1 < n.runLen() {
				return Slot{cur, top, true}
			}
			e = path[i]
		}
		cur = slot{node: next}
		if e.Kind == ident.Mini {
			if cur.mini = tr.findMini(tr.node(next), e.Dis); cur.mini == 0 {
				return Slot{}
			}
		}
	}
	return Slot{cur, len(path), false}
}

// randomSlotTree builds a tree with everything the scan can meet: nodes
// holding minis of several sites, children under minis, placeholder and
// dead minis, atom-less interior nodes, reserved subtrees partly filled,
// and flattened regions. Deletes follow the mode: SDIS keeps a tombstone,
// UDIS discards the mini and prunes emptied leaves when it can. It returns
// the tree and every identifier it ever inserted, live or not.
func randomSlotTree(t *testing.T, rng *rand.Rand, mode ident.Mode) (*Tree, []ident.Path) {
	tr := New()
	dis := func() ident.Dis {
		return ident.Dis{Counter: uint32(rng.Intn(2)), Site: ident.SiteID(1 + rng.Intn(4))}
	}
	ids := []ident.Path{{ident.M(uint8(rng.Intn(2)), dis())}}
	if err := tr.InsertID(ids[0], "a"); err != nil {
		t.Fatal(err)
	}
	bit := func() uint8 { return uint8(rng.Intn(2)) }
	for step, steps := 0, 20+rng.Intn(120); step < steps; step++ {
		base := ids[rng.Intn(len(ids))]
		var id ident.Path
		switch k := rng.Intn(100); {
		case k < 20: // child of the mini
			id = base.Child(ident.M(bit(), dis()))
		case k < 35: // child of the node's major slot
			id = base.StripLastDis().Child(ident.M(bit(), dis()))
		case k < 50: // another site's mini in the same node
			id = base.Clone()
			id[len(id)-1] = ident.M(id[len(id)-1].Bit, dis())
		case k < 60: // grandchild: the skipped mini becomes a placeholder
			id = base.Child(ident.M(bit(), dis())).Child(ident.M(bit(), dis()))
		case k < 70: // below an atom-less interior node (an empty slot)
			id = base.StripLastDis().Child(ident.J(bit())).Child(ident.M(bit(), dis()))
		case k < 80: // delete, leaving a tombstone or pruning the leaf
			if _, err := tr.DeleteID(base, mode == ident.UDIS); err != nil {
				t.Fatal(err)
			}
			continue
		case k < 93: // reserve a subtree, then fill about half of it
			region := base.StripLastDis().Child(ident.J(bit()))
			if rng.Intn(2) == 0 {
				region = base.Child(ident.J(bit()))
			}
			levels := 1 + rng.Intn(4)
			if err := tr.Reserve(region, levels); err != nil {
				t.Fatal(err)
			}
			for fill := rng.Intn(1 << levels); fill > 0; fill-- {
				slot := region.Clone()
				for l := rng.Intn(levels); l > 0; l-- {
					slot = append(slot, ident.J(bit()))
				}
				slot[len(slot)-1] = ident.M(slot[len(slot)-1].Bit, dis())
				if !tr.Exists(slot) {
					if err := tr.InsertID(slot, "r"); err != nil {
						t.Fatal(err)
					}
					ids = append(ids, slot)
				}
			}
			continue
		default: // flatten the node's subtree; its identifiers stay as bounds
			if len(base) > 1 {
				if err := tr.Flatten(base.StripLastDis()); err != nil && !IsNotFound(err) {
					t.Fatal(err)
				}
			}
			continue
		}
		if tr.Exists(id) {
			continue
		}
		if err := tr.InsertID(id, "x"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	checkTree(t, tr)
	return tr, ids
}

// TestFreeSearchMatchesOracle is the differential test of the forward
// scan. On seeded random trees, in SDIS and in UDIS, it asks FreeSlotAfter
// for a slot at every insertion gap — the document start, the document
// end and each interior gap, with neighbours and slots from the neighbour
// lookups — and after every dead mini, the lower bound SDIS allocation
// retries from when its identifier collides with a tombstone (the right
// bound being the next live atom). Each answer must be the identifier the
// root-down oracle finds between the same bounds, on a copy of the tree
// with every reserved node built, and its slot must be where the
// identifier's route leaves off.
func TestFreeSearchMatchesOracle(t *testing.T) {
	const trees = 1200
	for _, mode := range []ident.Mode{ident.SDIS, ident.UDIS} {
		d := ident.Dis{Site: 9}
		if mode == ident.UDIS {
			d.Counter = 7
		}
		var searches, found, reserved int
		// The built copy is decoded again whenever the lookups have
		// exploded a flattened region, the one change they make.
		var built *Tree
		builtFlats := 0
		check := func(seed int64, tr *Tree, p, f ident.Path, at Slot) {
			t.Helper()
			if built == nil || len(tr.flats) != builtFlats {
				var err error
				if built, err = DecodeSnapshot(tr.AppendSnapshot(nil)); err != nil {
					t.Fatal(err)
				}
				builtFlats = len(tr.flats)
			}
			want, _ := built.freeMiniBetweenOracle(p, f, d)
			records := tr.nodes.used()
			got, from := tr.FreeSlotAfter(nil, p, at, d)
			if !got.Equal(want) {
				t.Fatalf("%v seed %d, gap (%v, %v): FreeSlotAfter = %v, oracle %v", mode, seed, p, f, got, want)
			}
			searches++
			if got == nil {
				return
			}
			found++
			if from != routeSlot(tr, got[:len(got)-1]) {
				t.Fatalf("%v seed %d, gap (%v, %v): slot %v for %v is not where its route leaves off", mode, seed, p, f, from, got)
			}
			if tr.nodes.used() != records {
				reserved++ // the scan entered a reserved subtree
			}
		}
		for seed := int64(1); seed <= trees; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr, ids := randomSlotTree(t, rng, mode)
			built = nil
			for i := 0; i <= tr.Len(); i++ {
				var p, f ident.Path
				var at Gap
				var err error
				switch {
				case i > 0 && i < tr.Len():
					p, f, at, err = tr.AppendNeighborIDs(nil, nil, i)
				case i > 0: // the document end
					p, at.P, err = tr.AppendIDAt(nil, i-1)
				case i < tr.Len(): // the document start
					f, _, err = tr.AppendIDAt(nil, i)
				}
				if err != nil {
					t.Fatal(err)
				}
				check(seed, tr, p, f, at.P)
			}
			// The dead minis, each with the first live atom after it.
			live := make([]ident.Path, tr.Len())
			for i := range live {
				live[i], _ = tr.IDAt(i)
			}
			for _, q := range ids {
				s, used := tr.ExistsFrom(Slot{}, q)
				if !used || s.at.node == 0 || *tr.atomOf(s.at) != 0 {
					continue
				}
				var f ident.Path
				if j := sort.Search(len(live), func(j int) bool { return ident.Less(q, live[j]) }); j < len(live) {
					f = live[j]
				}
				check(seed, tr, q, f, s)
			}
			checkTree(t, tr)
		}
		t.Logf("%v: %d searches on %d trees, %d found a slot, %d of them in a reserved subtree no walk had entered", mode, searches, trees, found, reserved)
		if found < searches/10 || reserved < found/10 {
			t.Errorf("%v: the random trees no longer exercise the scan: %d of %d searches found a slot, %d in a reserved subtree", mode, found, searches, reserved)
		}
	}
}

// BenchmarkFreeSearchDeep prices the old walk against the scan where the
// walk is at its worst: a 64-level spine of minis over one reserved
// subtree, searched from the atom at the bottom of the spine. The walk
// comes down from the root through every level; the scan starts at that
// atom and finds the slot below it.
func BenchmarkFreeSearchDeep(b *testing.B) {
	tr := New()
	id := ident.Path{ident.M(1, ident.Dis{Site: 1})}
	for i := 0; i < 64; i++ {
		if err := tr.InsertID(id, "x"); err != nil {
			b.Fatal(err)
		}
		id = id.Child(ident.M(uint8(i&1), ident.Dis{Site: 1}))
	}
	if err := tr.Reserve(id.StripLastDis(), 3); err != nil {
		b.Fatal(err)
	}
	tr.MaterializeReserved() // the walk reads records only
	p, d := id[:len(id)-1], ident.Dis{Site: 2}
	at := routeSlot(tr, p)
	_, visits := tr.freeMiniBetweenOracle(p, nil, d)
	var scratch ident.Path
	for _, bc := range []struct {
		name   string
		fn     func() ident.Path
		visits int
	}{
		{"oracle", func() ident.Path { got, _ := tr.freeMiniBetweenOracle(p, nil, d); return got }, visits},
		{"scan", func() ident.Path { scratch, _ = tr.FreeSlotAfter(scratch[:0], p, at, d); return scratch }, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.fn() == nil {
					b.Fatal("reserved slot not found")
				}
			}
			if bc.visits > 0 {
				b.ReportMetric(float64(bc.visits), "visits")
			}
		})
	}
}
