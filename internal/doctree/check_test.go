package doctree_test

import (
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

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

// TestCheckRefusesBrokenTomb: Check catches each way a solo flag, a solo's
// atom handle, a hasEmpty bit or a run can disagree with the tree. A run's
// shape must hold 2 to MaxRun members and no side bit past them; it is a
// solo tomb, so on the root, a flat node, a node of minis or a live solo
// it breaks what a solo must be; and its one stamp stands for all its
// members' only while no stamp is after the revision clock.
func TestCheckRefusesBrokenTomb(t *testing.T) {
	solo := func(atom string) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) {
			var h uint32
			switch atom {
			case "":
			case "out of range":
				h = 1 << 20
			default:
				h = tr.AtomHandle(ident.MustParsePath(atom))
			}
			tr.SetSolo(node, h)
		}
	}
	bit := func(on bool) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) {
			if tr.HasEmpty(node) == on {
				t.Fatalf("%v has the bit %v already", node, on)
			}
			tr.SetHasEmpty(node, on)
		}
	}
	run := func(count int, sides uint32) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) { tr.SetRun(node, count, sides) }
	}
	// A run of three tombs at node 1, turning left then right, above a
	// live atom.
	chain := []string{"[(1:s1)]", "[1(0:s1)]", "[10(1:s1)]", "[101(1:s2)]", "-[(1:s1)]", "-[10(1:s1)]", "-[1(0:s1)]"}
	for _, tc := range []struct {
		name, want string
		ids        []string // applied in order: inserts, SDIS deletes marked -, reservations marked +
		node       string   // the node damaged
		flatten    bool
		damage     func(*doctree.Tree, ident.Path)
	}{
		{"a run of one tomb", "broken run", chain, "[1]", false, run(1, 0)},
		{"a run past its longest", "broken run", chain, "[1]", false, run(doctree.MaxRun+1, 0)},
		{"a run's side bit past its members", "broken run", chain, "[1]", false, run(3, 0b110)},
		{"a run on the root", "root holds mini-nodes", chain, "[]", false, run(2, 0)},
		{"a run on a flat node", "a solo", chain, "[1]", true, run(2, 0)},
		{"a run over a node of minis", "live atoms", []string{"[(0:s1)]", "[(0:s2)]"}, "[0]", false, run(2, 0)},
		{"a run over a live solo", "live atoms", chain, "[1011]", false, run(2, 0)},
		{"a run stamped after the revision clock", "revision clock", chain, "[1]", false,
			func(tr *doctree.Tree, node ident.Path) { tr.SetStamp(node, uint32(tr.Rev())+1) }},
		{"on the root", "root holds mini-nodes", []string{"[(0:s1)]"}, "[]", false, solo("")},
		{"on a flat node", "a solo", []string{"[(0:s1)]", "[0(0:s2)]"}, "[0]", true, solo("")},
		{"over a live mini with a child", "live atoms", []string{"[(0:s1)]", "[(0:s1)(1:s2)]"}, "[0]", false, solo("")},
		// The counters agree: the mini's entry and its onMini child are
		// what the tomb leaves unreached.
		{"over a dead mini with a child", "mini-child entries",
			[]string{"[(0:s1)]", "[(0:s1)(1:s2)]", "-[(0:s1)(1:s2)]", "-[(0:s1)]"}, "[0]", false, solo("")},
		{"counted as an empty node", "hasEmpty", []string{"[0(0:s1)]"}, "[0]", false, solo("")},
		{"with a non-zero counter", "reached", []string{"[(0:c5s1)]", "-[(0:c5s1)]"}, "[0]", false, solo("")},
		{"holding an atom on a flat node", "a solo", []string{"[(0:s1)]", "[0(0:s2)]", "[(1:s3)]"}, "[0]", true, solo("[(1:s3)]")},
		{"holding a record's atom", "shared",
			[]string{"[(0:s1)]", "[(0:s1)(0:s3)]", "[(1:s2)]", "-[(1:s2)]"}, "[1]", false, solo("[(0:s1)]")},
		{"holding a free atom handle", "free", []string{"[(0:s1)]", "[(1:s2)]", "-[(0:s1)]"}, "[0]", false,
			func(tr *doctree.Tree, node ident.Path) { tr.SetSolo(node, tr.FreeAtomHandle()) }},
		{"holding an atom handle out of range", "out of range", []string{"[(0:s1)]", "-[(0:s1)]"}, "[0]", false, solo("out of range")},
		{"bit set over no empty node", "hasEmpty", []string{"[(0:s1)]", "[0(1:s2)]"}, "[0]", false, bit(true)},
		{"bit clear over a reserved node", "hasEmpty", []string{"[(1:s1)]", "+[1(0:s2)0]"}, "[10]", false, bit(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := doctree.New()
			for _, id := range tc.ids {
				var err error
				if s, ok := strings.CutPrefix(id, "-"); ok {
					_, err = tr.DeleteID(ident.MustParsePath(s), false)
				} else if s, ok := strings.CutPrefix(id, "+"); ok {
					err = tr.Reserve(ident.MustParsePath(s), 3)
				} else {
					err = tr.InsertID(ident.MustParsePath(id), "x")
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			node := ident.MustParsePath(tc.node)
			if tc.flatten {
				if err := tr.Flatten(node); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("before the damage: %v", err)
			}
			if tc.damage(tr, node); tr.Check() == nil {
				t.Fatalf("Check accepts the damage")
			}
			if err := tr.Check(); !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// TestCheckRefusesBrokenRecords: Check catches each way the records can
// break the invariants a healthy tree's edits never exercise: a chain out
// of order, a reserve count beside children, a reserved-node count off by
// one, a node linked from two slots, a walk cache naming a released mini
// and a root with a parent.
func TestCheckRefusesBrokenRecords(t *testing.T) {
	mini := func(tr *doctree.Tree, id string) uint32 {
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
		{"minis out of order", "out of order", func(tr *doctree.Tree) {
			tr.SetDis(mini(tr, "[(1:s1)]"), ident.Dis{Site: 4}) // before s2 in the chain
		}},
		{"a reserve count beside children", "beside children", func(tr *doctree.Tree) {
			tr.SetReserve(ident.MustParsePath("[(1:s2)(1:s4)1]"), 1)
		}},
		{"the reserved-node count off by one", "the tree counts", func(tr *doctree.Tree) {
			tr.AddReserved(1)
		}},
		{"a node reached twice", "node handle", func(tr *doctree.Tree) {
			// The last mini's right slot names the right child of the one
			// before it, whose backlink it matches.
			left, shared := tr.NodeHandle(ident.MustParsePath("[(1:s3)0]")), tr.NodeHandle(ident.MustParsePath("[(1:s2)1]"))
			if left == 0 || shared == 0 {
				t.Fatal("the tree lacks a node the damage names")
			}
			tr.SetMiniChildEntry(mini(tr, "[(1:s3)]"), &[2]uint32{left, shared})
		}},
		{"a walk cache naming a released mini", "walk cache", func(tr *doctree.Tree) {
			id := ident.MustParsePath("[(1:s1)]")
			at, _ := tr.ExistsFrom(doctree.Slot{}, id)
			if _, err := tr.DeleteID(id, true); err != nil {
				t.Fatal(err)
			}
			tr.CacheWalk(id, at)
		}},
		{"a root with a parent", "root has a parent", func(tr *doctree.Tree) {
			tr.SetOnMini(ident.Path{}, true)
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
