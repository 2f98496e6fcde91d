package doctree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// miniScript is one random script over a tree whose minis have children of
// their own — the links the tree keeps in its mini-child table — and a twin
// fed the same edits that is rebuilt from the tree's snapshot now and then,
// so its table comes from the decoder as often as from inserts. The model
// is the live identifiers and atoms in document order.
type miniScript struct {
	t       *testing.T
	rng     *rand.Rand
	mode    ident.Mode
	a, b    *doctree.Tree
	ids     []ident.Path
	atoms   []string
	counter uint32
	step    string
	// released are the handles of minis that had children and lost their
	// entry; reused counts fresh minis that took one of them.
	released map[uint32]bool
	reused   int
	kidded   int // checks that found mini-child entries
}

func (s *miniScript) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%v %s: %s", s.mode, s.step, fmt.Sprintf(format, args...))
}

func (s *miniScript) dis() ident.Dis {
	s.counter++
	return ident.Dis{Counter: s.counter, Site: ident.SiteID(2 + s.rng.Intn(3))}
}

func (s *miniScript) trees() []*doctree.Tree { return []*doctree.Tree{s.a, s.b} }

// insert applies a remote insert at a fresh identifier to both trees and
// the model; false if id is already used. A fresh mini has no children,
// whichever record it took.
func (s *miniScript) insert(id ident.Path) bool {
	s.t.Helper()
	if s.a.Exists(id) {
		return false
	}
	atom := fmt.Sprint(s.counter)
	for _, tr := range s.trees() {
		if err := tr.InsertID(id, atom); err != nil {
			s.fatalf("insert %v: %v", id, err)
		}
	}
	s.fresh(id, atom)
	return true
}

// fresh records a new atom in the model and checks its mini.
func (s *miniScript) fresh(id ident.Path, atom string) {
	s.t.Helper()
	h, kids := s.a.MiniOf(id)
	if h == 0 || kids {
		s.fatalf("fresh atom %v: mini %d, flagged with children %v", id, h, kids)
	}
	if s.released[h] {
		s.reused++
		delete(s.released, h)
	}
	i, _ := slices.BinarySearchFunc(s.ids, id, ident.Compare)
	s.ids = slices.Insert(s.ids, i, id.Clone())
	s.atoms = slices.Insert(s.atoms, i, atom)
}

// mustInsert is insert for the fixed part of a script.
func (s *miniScript) mustInsert(id string) {
	s.t.Helper()
	if !s.insert(ident.MustParsePath(id)) {
		s.fatalf("%s is used", id)
	}
}

// concurrentGap builds what only concurrent inserts make: three sites
// inserting at one gap, then inserts between their minis, below those, and
// an empty node hanging from a mini.
func (s *miniScript) concurrentGap() {
	for _, id := range []string{
		"[(0:c1s1)]", "[(1:c2s1)]", // the gap lies between these two
		"[(0:c1s1)(1:c3s2)]", "[(0:c1s1)(1:c3s3)]", "[(0:c1s1)(1:c3s4)]", // three sites at once
		"[(0:c1s1)(1:c3s2)(1:c4s2)]", "[(0:c1s1)(1:c3s4)(0:c4s3)]", // between their minis
		"[(0:c1s1)(1:c3s2)(1:c4s2)(0:c5s4)]", "[(0:c1s1)(1:c3s2)(1:c4s2)(0:c5s3)]", // below those
		"[(0:c1s1)(1:c3s2)(1:c4s2)(0:c5s3)(1:c6s2)]",
		"[(0:c1s1)(1:c3s4)(0:c4s3)1(0:c6s4)]", // an empty node hanging from a mini
	} {
		s.mustInsert(id)
	}
	s.counter = 10
}

// remote inserts another replica's identifier next to a live atom: a child
// of the atom's mini, a sibling mini at the atom's position, a chain of
// plain elements below its mini, or a subtree of its node's major slot.
func (s *miniScript) remote() {
	s.t.Helper()
	if len(s.ids) == 0 {
		s.insert(ident.Path{ident.M(uint8(s.rng.Intn(2)), s.dis())})
		return
	}
	base := s.ids[s.rng.Intn(len(s.ids))]
	var id ident.Path
	switch s.rng.Intn(4) {
	case 0:
		id = base.Child(ident.M(uint8(s.rng.Intn(2)), s.dis()))
	case 1:
		id = base.StripLastDis()
		id[len(id)-1] = ident.M(base.Last().Bit, s.dis())
	case 2:
		id = base.Clone()
		for k := 1 + s.rng.Intn(2); k > 0; k-- {
			id = append(id, ident.J(uint8(s.rng.Intn(2))))
		}
		id = append(id, ident.M(uint8(s.rng.Intn(2)), s.dis()))
	default:
		id = base.StripLastDis()
		id = append(id, ident.M(uint8(s.rng.Intn(2)), s.dis()))
	}
	s.insert(id)
}

// local inserts at gap i where the free-slot scan answers, as a local edit
// would, holding the scan to the root-down oracle on the way.
func (s *miniScript) local(i int) {
	s.t.Helper()
	p, f, at, err := gap(s.a, i)
	if err != nil {
		s.fatalf("gap %d: %v", i, err)
	}
	if bp, bf, _, err := gap(s.b, i); err != nil || !bp.Equal(p) || !bf.Equal(f) {
		s.fatalf("gap %d: the twin's neighbours %v and %v (%v), the tree's %v and %v", i, bp, bf, err, p, f)
	}
	d := s.dis()
	got, from := s.a.FreeSlotAfter(nil, p, at.P, d)
	if want, _ := s.a.FreeMiniBetweenOracle(p, f, d); !got.Equal(want) {
		s.fatalf("gap %d (%v, %v): scan %v, oracle %v", i, p, f, got, want)
	}
	if got == nil {
		return
	}
	atom := fmt.Sprint(s.counter)
	if _, err := s.a.InsertFrom(from, got, atom); err != nil {
		s.fatalf("local insert %v: %v", got, err)
	}
	if err := s.b.InsertID(got, atom); err != nil {
		s.fatalf("local insert %v in the twin: %v", got, err)
	}
	s.fresh(got, atom)
}

// remove deletes atom i from both trees, discarding it under UDIS.
func (s *miniScript) remove(i int) {
	s.t.Helper()
	for _, tr := range s.trees() {
		if found, err := tr.DeleteID(s.ids[i], s.mode == ident.UDIS); err != nil || !found {
			s.fatalf("delete %v: %v, found %v", s.ids[i], err, found)
		}
	}
	s.ids, s.atoms = slices.Delete(s.ids, i, i+1), slices.Delete(s.atoms, i, i+1)
}

// flatten flattens region in both trees. The model's identifiers inside
// it become canonical: they are read back from a decoded copy, which
// explodes the regions so the trees keep theirs flat.
func (s *miniScript) flatten(region ident.Path) {
	s.t.Helper()
	for _, tr := range s.trees() {
		if err := tr.Flatten(region); err != nil {
			s.fatalf("flatten %v: %v", region, err)
		}
	}
	c := s.decoded()
	for i := range s.ids {
		id, err := c.IDAt(i)
		if err != nil {
			s.fatalf("IDAt(%d) after the flatten: %v", i, err)
		}
		s.ids[i] = id.Clone()
	}
}

func (s *miniScript) decoded() *doctree.Tree {
	s.t.Helper()
	c, err := doctree.DecodeSnapshot(s.a.AppendSnapshot(nil))
	if err != nil {
		s.fatalf("decode: %v", err)
	}
	return c
}

// track notes the minis that lost their entry during an edit.
func (s *miniScript) track(before map[uint32]bool) {
	after := s.a.MiniChildEntries()
	for h := range before {
		if !after[h] {
			s.released[h] = true
		}
	}
}

// verify holds both trees and a decoded copy to each other and the model:
// Check, content, identifiers, snapshot bytes, Stats but the heap, and
// the free-slot scan at every gap.
func (s *miniScript) verify() {
	s.t.Helper()
	want := strings.Join(s.atoms, ",")
	c := s.decoded()
	data := s.a.AppendSnapshot(nil)
	st := s.a.Stats(ident.PaperCost(s.mode))
	st.HeapBytes = 0
	for k, tr := range []*doctree.Tree{s.a, s.b, c} {
		if err := tr.Check(); err != nil {
			s.fatalf("tree %d: %v", k, err)
		}
		if got := strings.Join(tr.Content(), ","); got != want {
			s.fatalf("tree %d holds %q, want %q", k, got, want)
		}
		if got := tr.AppendSnapshot(nil); !bytes.Equal(got, data) {
			s.fatalf("tree %d encodes to %d bytes, the tree to %d", k, len(got), len(data))
		}
		got := tr.Stats(ident.PaperCost(s.mode))
		if got.HeapBytes = 0; got != st {
			s.fatalf("tree %d stats %+v, the tree's %+v", k, got, st)
		}
	}
	if len(s.a.MiniChildEntries()) > 0 {
		s.kidded++
	}
	// The copy's walks explode its flat regions; the trees keep theirs.
	for i, id := range s.ids {
		got, err := c.IDAt(i)
		if err != nil || !got.Equal(id) {
			s.fatalf("IDAt(%d) = %v (%v), want %v", i, got, err, id)
		}
		if j, err := c.IndexOfID(got); err != nil || j != i {
			s.fatalf("IndexOfID(%v) = %d (%v), want %d", got, j, err, i)
		}
	}
	for i := 0; i <= len(s.ids); i++ {
		p, f, at, err := gap(c, i)
		if err != nil {
			s.fatalf("gap %d: %v", i, err)
		}
		d := ident.Dis{Counter: s.counter + 1, Site: 9}
		got, _ := c.FreeSlotAfter(nil, p, at.P, d)
		if want, _ := c.FreeMiniBetweenOracle(p, f, d); !got.Equal(want) {
			s.fatalf("gap %d (%v, %v): scan %v, oracle %v", i, p, f, got, want)
		}
	}
}

// TestMiniChildTable drives the table that holds mini-nodes' child links
// through every path that writes or reads it, in SDIS and UDIS: three sites
// inserting at one gap and inserts between and below their minis, remote
// and local inserts, deletes (under UDIS, the discard of a mini with
// children and of its last child), cold and chosen subtree flattens over
// such regions, whole-document flattens, snapshot round trips, and fresh
// minis taking the records of released ones. After every step both trees
// and a decoded copy must pass Check and agree with the model and each
// other on content, identifiers, snapshot bytes and Stats.
func TestMiniChildTable(t *testing.T) {
	for _, mode := range []ident.Mode{ident.SDIS, ident.UDIS} {
		reused, kidded, checks, discards := 0, 0, 0, 0
		for seed := int64(1); seed <= 12; seed++ {
			s := &miniScript{t: t, rng: rand.New(rand.NewSource(seed)), mode: mode,
				a: doctree.New(), b: doctree.New(), released: map[uint32]bool{}}
			s.step = "set-up"
			s.concurrentGap()
			s.verify()
			if mode == ident.UDIS {
				// The discard of a mini with children keeps it as a
				// placeholder; the discard of its last child then takes it
				// and its entry too.
				before := s.a.MiniChildEntries()
				s.step = "discard a mini with children"
				s.remove(slices.IndexFunc(s.ids, func(id ident.Path) bool { return id.String() == "[(0:c1s1)(1:c3s4)]" }))
				if h, kids := s.a.MiniOf(ident.MustParsePath("[(0:c1s1)(1:c3s4)]")); h == 0 || !kids {
					s.fatalf("the discarded mini with children is gone")
				}
				s.verify()
				s.step = "discard its last children"
				for _, id := range []string{"[(0:c1s1)(1:c3s4)(0:c4s3)1(0:c6s4)]", "[(0:c1s1)(1:c3s4)(0:c4s3)]"} {
					s.remove(slices.IndexFunc(s.ids, func(x ident.Path) bool { return x.String() == id }))
					s.verify()
				}
				if h, _ := s.a.MiniOf(ident.MustParsePath("[(0:c1s1)(1:c3s4)]")); h != 0 {
					s.fatalf("the placeholder outlived its last child")
				}
				s.track(before)
				discards++
			}
			for step := 0; step < 120; step++ {
				s.step = fmt.Sprintf("seed %d step %d", seed, step)
				before := s.a.MiniChildEntries()
				n := len(s.ids)
				switch r := s.rng.Intn(100); {
				case n == 0 || r < 40:
					s.remote()
				case r < 60:
					s.local(s.rng.Intn(n + 1))
				case r < 80:
					s.remove(s.rng.Intn(n))
				case r < 88:
					for _, tr := range s.trees() {
						tr.AdvanceRev()
					}
					if cold := s.a.ColdestSubtree(s.a.Rev()-1, 2, mode == ident.UDIS); cold != nil {
						s.flatten(cold)
					}
				case r < 95: // the node of a live atom's ancestor, often one hanging from a mini
					id := s.ids[s.rng.Intn(n)]
					region := id.StripLastDis()[:1+s.rng.Intn(len(id))]
					region[len(region)-1] = ident.J(region[len(region)-1].Bit)
					s.flatten(region)
				case r < 97:
					s.flatten(ident.Path{})
				default:
					s.b = s.decoded()
				}
				s.track(before)
				s.verify()
				checks++
			}
			reused, kidded = reused+s.reused, kidded+s.kidded
		}
		t.Logf("%v: %d of %d checks found mini-child entries; %d fresh minis took a released one's record; %d discard cascades",
			mode, kidded, checks, reused, discards)
		if kidded < checks/2 || reused < 20 {
			t.Errorf("%v: the scripts no longer exercise the table: entries at %d of %d checks, %d records reused",
				mode, kidded, checks, reused)
		}
	}
}

// brokenTree builds a tree with minis that have children, the middle one
// of three with both, then lets damage break it.
func brokenTree(t *testing.T, damage func(tr *doctree.Tree)) error {
	t.Helper()
	tr := doctree.New()
	for _, id := range []string{"[(0:s1)]", "[(1:s1)]", "[(1:s2)]", "[(1:s3)]",
		"[(1:s2)(0:s4)]", "[(1:s2)(1:s4)]", "[(1:s2)(1:s4)1(0:s5)]", "[(1:s3)(0:s6)]"} {
		if err := tr.InsertID(ident.MustParsePath(id), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("before the damage: %v", err)
	}
	damage(tr)
	return tr.Check()
}

// TestCheckRefusesBrokenMiniChildTable: Check catches each way the table
// of mini-nodes' child links can disagree with the records.
func TestCheckRefusesBrokenMiniChildTable(t *testing.T) {
	handle := func(tr *doctree.Tree, id string) uint32 {
		h, _ := tr.MiniOf(ident.MustParsePath(id))
		if h == 0 {
			t.Fatalf("%s names no mini", id)
		}
		return h
	}
	for _, tc := range []struct {
		name, want string
		damage     func(tr *doctree.Tree)
	}{
		{"flagged mini without an entry", "no entry names one", func(tr *doctree.Tree) {
			tr.SetMiniChildEntry(handle(tr, "[(1:s2)]"), nil)
		}},
		{"entry for an unflagged mini", "mini-child entries", func(tr *doctree.Tree) {
			tr.SetMiniChildEntry(handle(tr, "[(1:s1)]"), &[2]uint32{0, 2})
		}},
		{"entry for a free mini", "mini-child entries", func(tr *doctree.Tree) {
			h := handle(tr, "[(1:s3)(0:s6)]")
			if _, err := tr.DeleteID(ident.MustParsePath("[(1:s3)(0:s6)]"), true); err != nil {
				t.Fatal(err)
			}
			tr.SetMiniChildEntry(h, &[2]uint32{2, 0})
		}},
		{"entry naming no child", "no entry names one", func(tr *doctree.Tree) {
			tr.SetMiniChildEntry(handle(tr, "[(1:s2)]"), &[2]uint32{})
		}},
		{"onMini node no entry lists", "bad backlink", func(tr *doctree.Tree) {
			tr.SetOnMini(ident.MustParsePath("[1]"), true)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := brokenTree(t, tc.damage)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
