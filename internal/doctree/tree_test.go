package doctree

import (
	"fmt"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

func mustInsert(t *testing.T, tr *Tree, id, atom string) {
	t.Helper()
	if err := tr.InsertID(ident.MustParsePath(id), atom); err != nil {
		t.Fatalf("InsertID(%s, %q): %v", id, atom, err)
	}
}

func content(tr *Tree) string { return strings.Join(tr.Content(), "") }

func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// figure2 builds the six-atom document of the paper's Figure 2 in the
// rooted layout (see ident tests): a=[00] b=[0] c=[01] d=[10] e=[1] f=[11].
func figure2(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	mustInsert(t, tr, "[0(0:s1)]", "a")
	mustInsert(t, tr, "[(0:s2)]", "b")
	mustInsert(t, tr, "[0(1:s3)]", "c")
	mustInsert(t, tr, "[1(0:s4)]", "d")
	mustInsert(t, tr, "[(1:s5)]", "e")
	mustInsert(t, tr, "[1(1:s6)]", "f")
	checkTree(t, tr)
	return tr
}

func TestInsertOrder(t *testing.T) {
	tr := figure2(t)
	if got := content(tr); got != "abcdef" {
		t.Errorf("content = %q, want abcdef", got)
	}
	if tr.Len() != 6 {
		t.Errorf("Len = %d, want 6", tr.Len())
	}
	if tr.Height() != 2 {
		t.Errorf("Height = %d, want 2", tr.Height())
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	tr := figure2(t)
	if err := tr.InsertID(ident.MustParsePath("[(0:s2)]"), "x"); err == nil {
		t.Error("duplicate insert succeeded")
	}
}

func TestInsertInvalidPath(t *testing.T) {
	tr := New()
	if err := tr.InsertID(ident.Path{}, "x"); err == nil {
		t.Error("empty path insert succeeded")
	}
	if err := tr.InsertID(ident.Path{ident.J(1)}, "x"); err == nil {
		t.Error("major-element path insert succeeded")
	}
}

// TestFigure3ConcurrentMinis reproduces Figure 3: concurrent inserts of W
// and Y between c and d create mini-siblings in one major node, then X
// lands under mini-node W (Figure 4) and Z in the node's right child.
func TestFigure3ConcurrentMinis(t *testing.T) {
	tr := figure2(t)
	mustInsert(t, tr, "[10(0:s7)]", "W")
	mustInsert(t, tr, "[10(0:s9)]", "Y")
	mustInsert(t, tr, "[10(0:s7)(1:s8)]", "X")
	mustInsert(t, tr, "[100(1:s10)]", "Z")
	checkTree(t, tr)
	if got := content(tr); got != "abcWXYZdef" {
		t.Errorf("content = %q, want abcWXYZdef", got)
	}
}

func TestDeleteTombstone(t *testing.T) {
	tr := figure2(t)
	found, err := tr.DeleteID(ident.MustParsePath("[0(1:s3)]"), false)
	if err != nil || !found {
		t.Fatalf("delete c: found=%v err=%v", found, err)
	}
	checkTree(t, tr)
	if got := content(tr); got != "abdef" {
		t.Errorf("content = %q, want abdef", got)
	}
	s := tr.Stats(ident.PaperCost(ident.SDIS))
	if s.DeadMinis != 1 || s.Minis != 6 {
		t.Errorf("tombstones: %d/%d, want 1/6", s.DeadMinis, s.Minis)
	}
	// Idempotent: a second delete is a no-op.
	found, err = tr.DeleteID(ident.MustParsePath("[0(1:s3)]"), false)
	if err != nil || found {
		t.Errorf("second delete: found=%v err=%v, want false,nil", found, err)
	}
	// Deleting a never-inserted identifier is also a no-op (idempotence
	// across replicas that already pruned it).
	found, err = tr.DeleteID(ident.MustParsePath("[111(0:s9)]"), false)
	if err != nil || found {
		t.Errorf("missing delete: found=%v err=%v, want false,nil", found, err)
	}
}

func TestDeletePruneCascade(t *testing.T) {
	tr := figure2(t)
	// Delete f (leaf mini at [11]): with pruning the mini and its node go.
	if _, err := tr.DeleteID(ident.MustParsePath("[1(1:s6)]"), true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	s := tr.Stats(ident.PaperCost(ident.UDIS))
	if s.DeadMinis != 0 {
		t.Errorf("UDIS delete left %d tombstones", s.DeadMinis)
	}
	if s.Nodes != 5 {
		t.Errorf("nodes = %d, want 5 after pruning", s.Nodes)
	}
	if got := content(tr); got != "abcde" {
		t.Errorf("content = %q", got)
	}
}

func TestDeletePruneKeepsNodeWithChildren(t *testing.T) {
	tr := figure2(t)
	// b's mini at [0] has no descendants of its own (a and c hang off the
	// major node's slots), so the mini is discarded — but the node stays.
	if _, err := tr.DeleteID(ident.MustParsePath("[(0:s2)]"), true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if got := content(tr); got != "acdef" {
		t.Errorf("content = %q", got)
	}
	s := tr.Stats(ident.PaperCost(ident.UDIS))
	if s.DeadMinis != 0 {
		t.Errorf("dead minis = %d, want 0 (leaf mini discarded)", s.DeadMinis)
	}
	if s.Nodes != 6 {
		t.Errorf("nodes = %d, want 6 (node [0] kept: it has children)", s.Nodes)
	}
	// Delete a and c: the cascade must now discard nodes [00], [01] and the
	// emptied node [0] itself.
	if _, err := tr.DeleteID(ident.MustParsePath("[0(0:s1)]"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.DeleteID(ident.MustParsePath("[0(1:s3)]"), true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	s = tr.Stats(ident.PaperCost(ident.UDIS))
	if s.Nodes != 3 {
		t.Errorf("nodes = %d, want 3 after cascade", s.Nodes)
	}
	if got := content(tr); got != "def" {
		t.Errorf("content = %q", got)
	}
}

func TestDeletePruneKeepsNonLeafMini(t *testing.T) {
	tr := figure2(t)
	mustInsert(t, tr, "[10(0:s7)]", "W")
	mustInsert(t, tr, "[10(0:s7)(1:s8)]", "X") // X hangs off mini-node W
	// Deleting W discards its atom but keeps the mini: X descends from it
	// ("the node itself must be kept", Section 3.3.1).
	if _, err := tr.DeleteID(ident.MustParsePath("[10(0:s7)]"), true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if got := content(tr); got != "abcXdef" {
		t.Errorf("content = %q", got)
	}
	s := tr.Stats(ident.PaperCost(ident.UDIS))
	if s.DeadMinis != 1 {
		t.Errorf("dead minis = %d, want 1 (W kept as placeholder)", s.DeadMinis)
	}
	// Deleting X cascades: X's node goes, then the dead mini W, then W's
	// emptied node.
	if _, err := tr.DeleteID(ident.MustParsePath("[10(0:s7)(1:s8)]"), true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	s = tr.Stats(ident.PaperCost(ident.UDIS))
	if s.DeadMinis != 0 {
		t.Errorf("dead minis = %d, want 0 after cascade", s.DeadMinis)
	}
	if got := content(tr); got != "abcdef" {
		t.Errorf("content = %q", got)
	}
	if s.Nodes != 6 {
		t.Errorf("nodes = %d, want 6 after cascade", s.Nodes)
	}
}

func TestResurrectDiscardedAncestors(t *testing.T) {
	tr := figure2(t)
	// Discard f's branch entirely (UDIS semantics).
	if _, err := tr.DeleteID(ident.MustParsePath("[1(1:s6)]"), true); err != nil {
		t.Fatal(err)
	}
	// A remote replay inserts a child of the discarded mini: ancestors must
	// be re-created as empty placeholders (Section 3.3.1).
	mustInsert(t, tr, "[1(1:s6)(0:s7)]", "g")
	checkTree(t, tr)
	if got := content(tr); got != "abcdeg" {
		t.Errorf("content = %q, want abcdeg", got)
	}
	s := tr.Stats(ident.PaperCost(ident.UDIS))
	if s.DeadMinis != 1 {
		t.Errorf("dead minis = %d, want 1 placeholder", s.DeadMinis)
	}
}

func TestIndexing(t *testing.T) {
	tr := figure2(t)
	want, ids := "abcdef", []string{"[0(0:s1)]", "[(0:s2)]", "[0(1:s3)]", "[1(0:s4)]", "[(1:s5)]", "[1(1:s6)]"}
	for i := 0; i < len(want); i++ {
		got, err := tr.AtomAt(i)
		if err != nil {
			t.Fatalf("AtomAt(%d): %v", i, err)
		}
		if got != string(want[i]) {
			t.Errorf("AtomAt(%d) = %q, want %q", i, got, want[i])
		}
		if id, err := tr.IDAt(i); err != nil || id.String() != ids[i] {
			t.Errorf("IDAt(%d) = %v (%v), want %s", i, id, err, ids[i])
		}
	}
	_, e1 := tr.AtomAt(-1)
	_, e2 := tr.AtomAt(6)
	_, e3 := tr.IDAt(6)
	_, e4 := tr.DeleteAtIndex(-1, false, nil)
	if e5 := tr.VisitBytes(0, 7, nil); e1 == nil || e2 == nil || e3 == nil || e4 == nil || e5 == nil {
		t.Errorf("lookups out of range succeed: %v, %v, %v, %v, %v", e1, e2, e3, e4, e5)
	}
}

func TestIndexingWithTombstonesAndMinis(t *testing.T) {
	tr := figure2(t)
	mustInsert(t, tr, "[10(0:s7)]", "W")
	mustInsert(t, tr, "[10(0:s9)]", "Y")
	mustInsert(t, tr, "[10(0:s7)(1:s8)]", "X")
	if _, err := tr.DeleteID(ident.MustParsePath("[1(0:s4)]"), false); err != nil { // delete d
		t.Fatal(err)
	}
	checkTree(t, tr)
	want := "abcWXYef"
	if got := content(tr); got != want {
		t.Fatalf("content = %q, want %q", got, want)
	}
	ids := []string{"[0(0:s1)]", "[(0:s2)]", "[0(1:s3)]", "[10(0:s7)]", "[10(0:s7)(1:s8)]", "[10(0:s9)]", "[(1:s5)]", "[1(1:s6)]"}
	for i := 0; i < len(want); i++ {
		if id, err := tr.IDAt(i); err != nil || id.String() != ids[i] {
			t.Errorf("IDAt(%d) = %v (%v), want %s", i, id, err, ids[i])
		}
	}
}

func TestAppendNeighborIDsGaps(t *testing.T) {
	tr := figure2(t)
	p, f, g, err := tr.AppendNeighborIDs(nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ident.Compare(p, f) >= 0 {
		t.Errorf("gap 3 neighbors out of order: %v >= %v", p, f)
	}
	if g.P != routeSlot(tr, p) || g.F != routeSlot(tr, f) {
		t.Errorf("gap 3 slots %v, %v are not where %v, %v lie", g.P, g.F, p, f)
	}
	// Only interior gaps have two neighbours.
	for _, gap := range []int{0, 6, 7} {
		if _, _, _, err := tr.AppendNeighborIDs(nil, nil, gap); err == nil {
			t.Errorf("gap %d accepted", gap)
		}
	}
}

func TestFlattenRoot(t *testing.T) {
	tr := figure2(t)
	if _, err := tr.DeleteID(ident.MustParsePath("[0(1:s3)]"), false); err != nil { // tombstone c
		t.Fatal(err)
	}
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if got := content(tr); got != "abdef" {
		t.Errorf("content after flatten = %q, want abdef", got)
	}
	s := tr.Stats(ident.PaperCost(ident.SDIS))
	if s.Nodes != 0 || s.Minis != 0 || s.DeadMinis != 0 {
		t.Errorf("flattened doc has nodes=%d minis=%d dead=%d, want 0", s.Nodes, s.Minis, s.DeadMinis)
	}
	if s.MemBytes != 0 {
		t.Errorf("flattened doc mem overhead = %d, want 0 (paper: zero overhead)", s.MemBytes)
	}
	if s.FlatAtoms != 5 || s.LiveAtoms != 5 {
		t.Errorf("flat=%d live=%d, want 5/5", s.FlatAtoms, s.LiveAtoms)
	}
}

func TestExplodeOnEdit(t *testing.T) {
	tr := figure2(t)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	// Applying a path to the array must explode it back into tree form
	// (Section 4.2), with canonical pure-bitstring identifiers.
	id, err := tr.IDAt(2)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	for _, e := range id[:len(id)-1] {
		if e.Kind != ident.Major {
			t.Errorf("canonical id %v has a non-major interior element", id)
		}
	}
	if !id.Last().Dis.IsCanonical() {
		t.Errorf("canonical id %v carries a site disambiguator", id)
	}
	if got := content(tr); got != "abcdef" {
		t.Errorf("content after explode = %q", got)
	}
	s := tr.Stats(ident.PaperCost(ident.SDIS))
	if s.FlatAtoms != 0 {
		t.Errorf("flat atoms = %d after explode", s.FlatAtoms)
	}
	// Canonical identifiers cost one bit per level: total must equal the
	// analytic value computed before exploding.
	if s.TotalIDBits != 2+3+2+3+2+3 && s.TotalIDBits != 14 {
		t.Logf("total id bits = %d", s.TotalIDBits)
	}
}

func TestFlattenSubtree(t *testing.T) {
	tr := figure2(t)
	// Flatten the subtree at [1] (atoms d under [10], e's mini, f under [11]).
	// [1] designates node "1": its region holds d, e, f.
	if err := tr.Flatten(ident.MustParsePath("[1(1:s6)]").StripLastDis()[:1]); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if got := content(tr); got != "abcdef" {
		t.Errorf("content = %q", got)
	}
	s := tr.Stats(ident.PaperCost(ident.SDIS))
	if s.FlatAtoms != 3 {
		t.Errorf("flat atoms = %d, want 3 (d,e,f)", s.FlatAtoms)
	}
	if s.Nodes != 3 {
		t.Errorf("nodes = %d, want 3 (a,b,c)", s.Nodes)
	}
	// Inserting next to the flat region explodes it lazily.
	mustInsert(t, tr, "[11(0:s9)]", "X")
	checkTree(t, tr)
	got := content(tr)
	if !strings.Contains(got, "X") || len(got) != 7 {
		t.Errorf("content = %q", got)
	}
}

func TestFlattenErrors(t *testing.T) {
	tr := figure2(t)
	if err := tr.Flatten(ident.MustParsePath("[(0:s2)]")); err == nil {
		t.Error("flattening a mini-node path succeeded")
	}
	if err := tr.Flatten(ident.Path{ident.J(1), ident.J(1), ident.J(1), ident.J(1)}); err == nil {
		t.Error("flattening a missing node succeeded")
	}
}

func TestFlattenEmptyDoc(t *testing.T) {
	tr := New()
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	// An exploded empty flat region stays empty.
	mustInsert(t, tr, "[(1:s1)]", "x")
	checkTree(t, tr)
	if got := content(tr); got != "x" {
		t.Errorf("content = %q", got)
	}
}

// An emptied subtree flattens to an empty region; walking an identifier
// through it turns it back into an ordinary empty node, which counts
// itself again (found by the cluster schedule explorer, seed 2004).
func TestExplodeEmptySubtreeRegion(t *testing.T) {
	tr := figure2(t)
	for _, id := range []string{"[1(0:s4)]", "[(1:s5)]", "[1(1:s6)]"} { // d, e, f: every atom below [1]
		if _, err := tr.DeleteID(ident.MustParsePath(id), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flatten(ident.Path{ident.J(1)}); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	mustInsert(t, tr, "[11(0:s9)]", "X")
	checkTree(t, tr)
	if got := content(tr); got != "abcX" {
		t.Errorf("content = %q, want abcX", got)
	}
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

// freeAfter asks FreeSlotAfter for a slot in the gap after p, which must
// be materialised, for disambiguator s9.
func freeAfter(t *testing.T, tr *Tree, p ident.Path) ident.Path {
	t.Helper()
	var at Slot
	if p != nil {
		if at = routeSlot(tr, p); at.at.mini == 0 && !at.run {
			t.Fatalf("%v is not in the tree", p)
		}
	}
	got, _ := tr.FreeSlotAfter(nil, p, at, ident.Dis{Site: 9})
	return got
}

func TestFreeMiniBetween(t *testing.T) {
	tr := figure2(t)
	// No free slots in the dense figure-2 tree between adjacent atoms a,b.
	a := ident.MustParsePath("[0(0:s1)]")
	if got := freeAfter(t, tr, a); got != nil {
		t.Errorf("unexpected free slot %v", got)
	}
	// Materialise a grown region: an empty chain below [11] right.
	mustInsert(t, tr, "[1110(0:s7)]", "g") // creates empty nodes [111] and [1110]
	checkTree(t, tr)
	f := ident.MustParsePath("[1(1:s6)]")
	g := ident.MustParsePath("[1110(0:s7)]")
	// Between f and g there are no free slots (the chain sits right of g)…
	if got := freeAfter(t, tr, f); got != nil {
		t.Errorf("unexpected free slot between f and g: %v", got)
	}
	// …but after g, the empty nodes [1110] and [111] are reusable, in infix
	// order: [1110]'s mini position comes first.
	got := freeAfter(t, tr, g)
	if got == nil {
		t.Fatal("no free slot found after g")
	}
	if want := "[111(0:s9)]"; got.String() != want {
		t.Errorf("free slot = %v, want %v", got, want)
	}
	if !ident.Between(g, got, nil) {
		t.Errorf("free slot %v not after g", got)
	}
	// Fill it and ask again: the next slot must differ and still be ordered.
	mustInsert(t, tr, got.String(), "h")
	checkTree(t, tr)
	next := freeAfter(t, tr, got)
	if next == nil {
		t.Fatal("no second free slot")
	}
	if ident.Compare(got, next) >= 0 {
		t.Errorf("slots out of order: %v then %v", got, next)
	}
}

func TestColdestSubtree(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "[(0:s1)]", "a")
	mustInsert(t, tr, "[0(0:s1)]", "b")
	mustInsert(t, tr, "[0(1:s1)]", "c")
	tr.AdvanceRev()
	mustInsert(t, tr, "[(1:s1)]", "x") // hot branch at rev 1
	// Cutoff 0: the [0] subtree (3 nodes… node [0] plus two children) is cold.
	cold := tr.ColdestSubtree(0, 1, false)
	if cold == nil {
		t.Fatal("no cold subtree found")
	}
	if want := "[0]"; cold.String() != want {
		t.Errorf("cold subtree = %v, want %v", cold, want)
	}
	// Nothing cold enough with a high node threshold.
	if got := tr.ColdestSubtree(0, 100, false); got != nil {
		t.Errorf("unexpected cold subtree %v", got)
	}
	// Everything cold at cutoff 1: the whole document (root, empty path).
	cold = tr.ColdestSubtree(1, 1, false)
	if cold == nil || len(cold) != 0 {
		t.Errorf("cold subtree = %v, want root", cold)
	}
}

// TestRecycledNodeIsUnstamped: a node record that a UDIS prune or a
// subtree flatten releases keeps its stamp in Tree.stamps, and a node built
// on its handle must not inherit it. The [1] subtree, edited at revision 3,
// releases its records; exploding the cold region [0] then builds its
// canonical children on those handles, and they must read as cold as the
// atoms they hold.
func TestRecycledNodeIsUnstamped(t *testing.T) {
	hot := []string{"[1(1:c3s2)]", "[1(0:c2s2)]", "[(1:c1s2)]"}
	for _, recycle := range []string{"UDIS prune", "subtree flatten"} {
		t.Run(recycle, func(t *testing.T) {
			tr := New()
			for _, id := range []string{"[(0:s1)]", "[0(0:s1)]", "[0(1:s1)]"} {
				mustInsert(t, tr, id, "a")
			}
			if err := tr.Flatten(ident.MustParsePath("[0]")); err != nil {
				t.Fatal(err)
			}
			tr.AdvanceRev()
			tr.AdvanceRev()
			tr.AdvanceRev()
			for _, id := range hot {
				mustInsert(t, tr, id, "b")
			}
			switch recycle {
			case "UDIS prune":
				for _, id := range hot {
					if _, err := tr.DeleteID(ident.MustParsePath(id), true); err != nil {
						t.Fatal(err)
					}
				}
			case "subtree flatten":
				if err := tr.Flatten(ident.MustParsePath("[1]")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.IDAt(0); err != nil { // explodes [0]
				t.Fatal(err)
			}
			checkTree(t, tr)
			if got := tr.ColdestSubtree(2, 1, false); got.String() != "[00]" {
				t.Errorf("ColdestSubtree(2) = %v, want [00]", got)
			}
		})
	}
}

func TestStatsIdentifierBits(t *testing.T) {
	tr := figure2(t)
	c := ident.PaperCost(ident.SDIS)
	s := tr.Stats(c)
	// Depths: a,c,d,f at 2; b,e at 1. Bits = depth + 48 per atom.
	wantTotal := (2+48)*4 + (1+48)*2
	if s.TotalIDBits != wantTotal {
		t.Errorf("TotalIDBits = %d, want %d", s.TotalIDBits, wantTotal)
	}
	if s.MaxIDBits != 50 {
		t.Errorf("MaxIDBits = %d, want 50", s.MaxIDBits)
	}
	if s.LiveAtoms != 6 || s.DocBytes != 6 {
		t.Errorf("live=%d bytes=%d", s.LiveAtoms, s.DocBytes)
	}
	if got := s.AvgIDBits(); got < 49 || got > 50 {
		t.Errorf("AvgIDBits = %v", got)
	}
	var zero Stats
	if s.NonTombstoneFraction() != 1 || zero.NonTombstoneFraction() != 1 || s.OverheadBitsPerAtom() != s.AvgIDBits() || s.HeapOverModel() <= 0 ||
		zero.AvgIDBits()+zero.OverheadBitsPerAtom()+zero.MemOverheadRatio()+zero.HeapOverModel() != 0 {
		t.Errorf("NonTombstoneFraction = %v, OverheadBitsPerAtom = %v, HeapOverModel = %v; of no stats %+v", s.NonTombstoneFraction(), s.OverheadBitsPerAtom(), s.HeapOverModel(), zero)
	}
	// Memory model: 6 nodes, single childless minis under SDIS: 12+6+4 each,
	// but b and e have mini children? No: a,c hang off node [0]'s major
	// slots, so all minis are childless: 6 × 22 = 132.
	if s.MemBytes != 6*22 {
		t.Errorf("MemBytes = %d, want %d", s.MemBytes, 6*22)
	}
}

func TestStatsFlatRegionBits(t *testing.T) {
	tr := figure2(t)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats(ident.PaperCost(ident.SDIS))
	// Force the explode and compare: analytic flat bits must equal the
	// post-explode measured bits.
	if _, err := tr.IDAt(0); err != nil {
		t.Fatal(err)
	}
	after := tr.Stats(ident.PaperCost(ident.SDIS))
	if before.TotalIDBits != after.TotalIDBits {
		t.Errorf("flat id bits %d != exploded id bits %d", before.TotalIDBits, after.TotalIDBits)
	}
	if before.MaxIDBits != after.MaxIDBits {
		t.Errorf("flat max bits %d != exploded max bits %d", before.MaxIDBits, after.MaxIDBits)
	}
}

func TestVisitLiveEarlyStop(t *testing.T) {
	tr := figure2(t)
	seen := 0
	tr.VisitBytes(0, tr.Len(), func(atom []byte) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("visited %d atoms, want 3", seen)
	}
}

func TestLookupByID(t *testing.T) {
	tr := figure2(t)
	e := ident.MustParsePath("[(1:s5)]")
	if !tr.HasLive(e) || !tr.Exists(e) {
		t.Errorf("atom %v reported dead or unused", e)
	}
	if missing := ident.MustParsePath("[(1:s99)]"); tr.HasLive(missing) || tr.Exists(missing) {
		t.Errorf("missing atom %v reported live or used", missing)
	}
	if _, err := tr.DeleteID(e, false); err != nil {
		t.Fatal(err)
	}
	if tr.HasLive(e) || !tr.Exists(e) {
		t.Error("tombstoned atom reported live or unused")
	}
}

func TestLargeCanonicalExplode(t *testing.T) {
	tr := New()
	atoms := make([]string, 1000)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("line-%d", i)
	}
	// A flat root holding the atoms at handles 1 to 1000, loaded as the
	// snapshot decoder loads a region; IDAt explodes it.
	tr.atoms.load(func(add func([]byte) uint32) {
		for _, a := range atoms {
			add([]byte(a))
		}
	})
	root := tr.node(rootH)
	root.u, root.live, root.flags = 1, uint32(len(atoms)), root.flags|flatF
	checkTree(t, tr)
	if _, err := tr.IDAt(500); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if tr.Len() != 1000 {
		t.Errorf("Len = %d", tr.Len())
	}
	got := tr.Content()
	for i, a := range got {
		if a != atoms[i] {
			t.Fatalf("content[%d] = %q, want %q", i, a, atoms[i])
		}
	}
	// Canonical tree of 1000 atoms under the root: depth 9 subtrees
	// (2^10-2 = 1022 >= 1000): height <= 10.
	if tr.Height() > 10 {
		t.Errorf("Height = %d, want <= 10", tr.Height())
	}
}
