package doctree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

// The free-slot search as it stood before its visits became O(1): every
// node re-compares both bounds against the whole prefix. It is kept as the
// differential oracle — the walk below is that code verbatim; only the
// entry point differs, taking the visit budget and returning what is left
// of it, so the test can force small budgets and compare where each search
// stopped. Every identifier the new search mints must be the one this one
// would have minted.
func (t *Tree) freeMiniBetweenOracle(p, f ident.Path, d ident.Dis, budget int) (ident.Path, int) {
	s := &oracleSearch{t: t, p: p, f: f, budget: budget}
	s.prefix = make(ident.Path, 0, min(t.height+4, 64)) // deep trees grow the prefix on demand
	if s.walk(rootH) == 0 {
		return nil, s.budget
	}
	id := s.prefix.Clone()
	id[len(id)-1] = ident.M(id[len(id)-1].Bit, d)
	return id, s.budget
}

// oracleSearch is the in-order free-slot walk. prefix always holds the
// structural path of the node being visited (empty at the root); when the
// walk succeeds it holds the found node's path.
type oracleSearch struct {
	t      *Tree
	p, f   ident.Path
	prefix ident.Path
	budget int
}

// walk searches n's subtree in infix order, returning the first empty node
// whose mini position lies strictly between the bounds.
func (s *oracleSearch) walk(h nodeH) nodeH {
	n := s.t.node(h)
	if n.flat || n.emptyN == 0 || s.budget <= 0 {
		return 0 // a nil child reads emptyN == 0
	}
	s.budget--
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
	for mh := n.first; mh != 0; {
		m := s.t.mini(mh)
		// Descend through the mini: the entry element gains its dis.
		last := len(s.prefix) - 1
		saved := s.prefix[last]
		s.prefix[last] = ident.M(saved.Bit, m.dis())
		if got := s.into(m.kids[0], ident.J(0)); got != 0 {
			return got
		}
		if got := s.into(m.kids[1], ident.J(1)); got != 0 {
			return got
		}
		s.prefix[last] = saved
		mh = m.next
	}
	return s.into(n.kids[1], ident.J(1))
}

// into pushes the child element, walks the child, and pops on failure. On
// success the prefix is left pointing at the found node.
func (s *oracleSearch) into(h nodeH, e ident.Elem) nodeH {
	s.prefix = append(s.prefix, e)
	if got := s.walk(h); got != 0 {
		return got
	}
	s.prefix = s.prefix[:len(s.prefix)-1]
	return 0
}

// searchNew runs the production walk with a forced budget and reports what
// it left, the way freeMiniBetweenOracle does for the old one.
func searchNew(tr *Tree, p, f ident.Path, d ident.Dis, budget int) (ident.Path, int) {
	s := slotSearch{t: tr, p: p, f: f, prefix: tr.slotPath[:0], budget: budget}
	if s.walk(rootH, p != nil, f != nil) == 0 {
		return nil, s.budget
	}
	id := s.prefix.Clone()
	id[len(id)-1] = ident.M(id[len(id)-1].Bit, d)
	return id, s.budget
}

// randomSlotTree builds a tree with everything the search can meet: nodes
// holding minis of several sites, children under minis, placeholder and
// tombstone minis, atom-less interior nodes, pruned leaves, reserved
// subtrees partly filled, and flattened regions. It returns the tree and
// every identifier it ever inserted, live or not, as the pool of bounds.
func randomSlotTree(t *testing.T, rng *rand.Rand) (*Tree, []ident.Path) {
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
			if _, err := tr.DeleteID(base, rng.Intn(2) == 0); err != nil {
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

// TestFreeSearchMatchesOracle is the differential test of the O(1)-per-visit
// search: on seeded random trees, for nil and non-nil bounds, adjacent and
// distant, one a prefix of the other, at the production budget and at
// budgets forced down to a handful of visits, it returns the identifier the
// old search returns and stops with the same budget left — the same nodes
// charged in the same order.
func TestFreeSearchMatchesOracle(t *testing.T) {
	const trees = 1200
	var searches, found, exhausted int
	for seed := int64(1); seed <= trees; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, ids := randomSlotTree(t, rng)
		sort.Slice(ids, func(i, j int) bool { return ident.Less(ids[i], ids[j]) })
		d := ident.Dis{Counter: 7, Site: 9}
		for q := 0; q < 24; q++ {
			var p, f ident.Path
			i := rng.Intn(len(ids))
			switch rng.Intn(6) {
			case 0: // document start
				f = ids[i]
			case 1: // document end
				p = ids[i]
			case 2: // neighbours
				p = ids[i]
				if i+1 < len(ids) {
					f = ids[i+1]
				}
			case 3: // an identifier and one it is a prefix of
				p, f = ids[i], ids[i].Child(ident.M(1, d)).Child(ident.M(uint8(rng.Intn(2)), d))
				if rng.Intn(2) == 0 {
					p, f = ids[i].Child(ident.M(0, d)).Child(ident.M(uint8(rng.Intn(2)), d)), ids[i]
				}
			case 4: // the whole document
			default: // any two
				j := rng.Intn(len(ids))
				if i > j {
					i, j = j, i
				}
				if p = ids[i]; i != j {
					f = ids[j]
				}
			}
			budget := 16*tr.height + 64
			if q%2 == 1 {
				budget = 1 + rng.Intn(50)
			}
			want, wantLeft := tr.freeMiniBetweenOracle(p, f, d, budget)
			got, gotLeft := searchNew(tr, p, f, d, budget)
			if !got.Equal(want) || gotLeft != wantLeft {
				t.Fatalf("seed %d, bounds (%v, %v), budget %d: got %v with %d left, oracle %v with %d left",
					seed, p, f, budget, got, gotLeft, want, wantLeft)
			}
			if q%2 == 0 {
				if pub := tr.FreeMiniBetween(nil, p, f, d); !pub.Equal(want) {
					t.Fatalf("seed %d, bounds (%v, %v): FreeMiniBetween = %v, oracle %v", seed, p, f, pub, want)
				}
			}
			searches++
			if want != nil {
				found++
			}
			if wantLeft == 0 {
				exhausted++
			}
		}
	}
	t.Logf("%d searches on %d trees: %d found a slot, %d ran out of budget", searches, trees, found, exhausted)
	if found < searches/10 || exhausted < searches/100 {
		t.Errorf("the random trees no longer exercise the search: %d of %d found a slot, %d ran out of budget", found, searches, exhausted)
	}
}

// BenchmarkFreeSearchDeep prices one visit of the walk, old and new, where
// it matters: a 64-level spine of minis over one reserved subtree, searched
// from the top, so every visit on the way down has a bound passing through
// it. The old search re-scans the prefix at each of them.
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
	p, d := id[:len(id)-1], ident.Dis{Site: 2}
	budget := 16*tr.height + 64
	_, left := tr.freeMiniBetweenOracle(p, nil, d, budget)
	visits := float64(budget - left)
	var scratch ident.Path
	for _, bc := range []struct {
		name string
		fn   func() ident.Path
	}{
		{"oracle", func() ident.Path { got, _ := tr.freeMiniBetweenOracle(p, nil, d, budget); return got }},
		{"search", func() ident.Path { scratch = tr.FreeMiniBetween(scratch[:0], p, nil, d); return scratch }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.fn() == nil {
					b.Fatal("reserved slot not found")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/visits, "ns/visit")
			b.ReportMetric(visits, "visits")
		})
	}
}
