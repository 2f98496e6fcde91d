package doctree

import (
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

func TestReserveMaterialisesCompleteSubtree(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "[(1:s1)]", "a")
	// Reserve 2 levels under [11]: nodes [11], [110], [111].
	if err := tr.Reserve(ident.MustParsePath("[11(0:s1)]").StripLastDis()[:2], 2); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	s := tr.Stats(ident.PaperCost(ident.SDIS))
	if s.Nodes != 4 { // node [1] (holds a) + the three reserved
		t.Errorf("nodes = %d, want 4", s.Nodes)
	}
	if tr.Height() != 3 {
		t.Errorf("height = %d, want 3 (region root at depth 2 plus one level)", tr.Height())
	}
	// The reserved slots are found by the free search, in infix order.
	a := ident.MustParsePath("[(1:s1)]")
	got := freeAfter(t, tr, a)
	if got == nil || got.String() != "[11(0:s9)]" {
		t.Errorf("first free slot = %v, want [11(0:s9)]", got)
	}
}

func TestReserveValidation(t *testing.T) {
	tr := New()
	if err := tr.Reserve(ident.Path{}, 2); err == nil {
		t.Error("reserving the root (empty path) accepted")
	}
	if err := tr.Reserve(ident.MustParsePath("[(1:s1)]"), 2); err == nil {
		t.Error("reserving a mini path accepted")
	}
}

func TestReserveThroughMiniAndExisting(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "[(1:s1)]", "a")
	mustInsert(t, tr, "[(1:s1)(0:s2)]", "b") // child of mini a
	// Reserve below the mini's child region.
	path := ident.MustParsePath("[(1:s1)(0:s2)]").StripLastDis()
	if err := tr.Reserve(path, 2); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Re-reserving is idempotent structurally.
	before := tr.Stats(ident.PaperCost(ident.SDIS)).Nodes
	if err := tr.Reserve(path, 2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(ident.PaperCost(ident.SDIS)).Nodes; got != before {
		t.Errorf("re-reserve changed node count %d -> %d", before, got)
	}
}

func TestExistsEdgeCases(t *testing.T) {
	tr := figure2(t)
	if !tr.Exists(ident.MustParsePath("[(0:s2)]")) {
		t.Error("live atom not reported used")
	}
	if _, err := tr.DeleteID(ident.MustParsePath("[(0:s2)]"), false); err != nil {
		t.Fatal(err)
	}
	if !tr.Exists(ident.MustParsePath("[(0:s2)]")) {
		t.Error("tombstone not reported used (SDIS must not re-mint it)")
	}
	if tr.Exists(ident.MustParsePath("[(0:s9)]")) {
		t.Error("absent mini reported used")
	}
	if tr.Exists(ident.MustParsePath("[0000(1:s1)]")) {
		t.Error("absent deep path reported used")
	}
	// Flat regions: canonical space is conservatively used, site ids free.
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	if tr.Exists(ident.MustParsePath("[00(1:s5)]")) {
		t.Error("site-disambiguated id inside flat region reported used")
	}
	if !tr.Exists(ident.MustParsePath("[00(1:⊥)]")) {
		t.Error("canonical id inside flat region reported free")
	}
	// Exists must not have exploded the region (5 atoms: b was tombstoned
	// before the flatten collected it).
	if got := tr.Stats(ident.PaperCost(ident.SDIS)).FlatAtoms; got != 5 {
		t.Errorf("Exists exploded the flat region: flat atoms = %d", got)
	}
}

func TestAtomAtInsideFlatDoesNotExplode(t *testing.T) {
	tr := figure2(t)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c", "d", "e", "f"} {
		got, err := tr.AtomAt(i)
		if err != nil || got != want {
			t.Fatalf("AtomAt(%d) = %q, %v", i, got, err)
		}
	}
	if got := tr.Stats(ident.PaperCost(ident.SDIS)).FlatAtoms; got != 6 {
		t.Errorf("AtomAt exploded the region: flat = %d", got)
	}
	// IDAt requires identifiers, so it explodes.
	if _, err := tr.IDAt(3); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(ident.PaperCost(ident.SDIS)).FlatAtoms; got != 0 {
		t.Errorf("IDAt left flat atoms: %d", got)
	}
	checkTree(t, tr)
}

func TestColdestSubtreeSkipsMiniLessRegions(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "[(0:s1)]", "a")
	mustInsert(t, tr, "[1(0:s1)]", "c") // a small cold region with an atom
	// A purely reserved (mini-less) region, much larger: must never be
	// selected, since remote replicas would not have it materialised.
	if err := tr.Reserve(ident.Path{ident.J(1), ident.J(1)}, 4); err != nil {
		t.Fatal(err)
	}
	tr.AdvanceRev()
	mustInsert(t, tr, "[0(0:s1)]", "b") // keep the left branch hot
	cold := tr.ColdestSubtree(0, 1, false)
	if cold == nil {
		t.Fatal("no cold subtree at all")
	}
	h, err := tr.walkNode(cold)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, dead, _ := bruteCount(tr, h); tr.node(h).live+uint32(dead) == 0 {
		t.Errorf("cold subtree %v has no mini-nodes", cold)
	}
	// The selected region may enclose the reserved slots (it then contains
	// c's mini and remains remotely resolvable) but must never be the
	// mini-less reserved region itself.
	if cold.HasPrefix(ident.Path{ident.J(1), ident.J(1)}) {
		t.Errorf("cold subtree = %v lies inside the reserved-only region", cold)
	}
}

func TestColdScorePrefersTombstones(t *testing.T) {
	tr := New()
	// Left branch: many live atoms. Right branch: fewer nodes but dense
	// tombstones. The heuristic must pick the tombstone-rich region.
	for i, s := range []string{"[0(0:s1)]", "[00(0:s1)]", "[000(0:s1)]", "[0000(0:s1)]", "[00000(0:s1)]"} {
		mustInsert(t, tr, s, string(rune('a'+i)))
	}
	for _, s := range []string{"[1(0:s1)]", "[10(0:s1)]", "[100(0:s1)]"} {
		mustInsert(t, tr, s, "x")
		if _, err := tr.DeleteID(ident.MustParsePath(s), false); err != nil {
			t.Fatal(err)
		}
	}
	tr.AdvanceRev()
	// Keep a shallow left branch hot so the root itself is not cold.
	mustInsert(t, tr, "[01(0:s1)]", "hot")
	cold := tr.ColdestSubtree(0, 1, false)
	if cold == nil {
		t.Fatal("no cold subtree")
	}
	if cold.String() != "[1]" {
		t.Errorf("cold subtree = %v, want [1] (tombstone-rich)", cold)
	}
}

// TestColdestSubtreeSkipsHeldTombstones: where deletes discard (UDIS), a
// tombstone outlives its delete only while something below it holds it. A
// locally reserved slot holds it only here — a replica that applied the
// same operations discarded it, region and all — so with liveOnly such a
// region is no candidate, and a distributed flatten never names a path the
// other replicas cannot resolve.
func TestColdestSubtreeSkipsHeldTombstones(t *testing.T) {
	local, remote := New(), New()
	for _, tr := range []*Tree{local, remote} {
		mustInsert(t, tr, "[(0:c1s1)]", "a")
		mustInsert(t, tr, "[(1:c2s1)]", "c")
	}
	if err := local.Reserve(ident.MustParsePath("[(1:c2s1)1]"), 3); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{local, remote} {
		if _, err := tr.DeleteID(ident.MustParsePath("[(1:c2s1)]"), true); err != nil {
			t.Fatal(err)
		}
		tr.AdvanceRev()
		mustInsert(t, tr, "[(0:c1s1)(0:c3s1)]", "hot")
	}
	held := local.ColdestSubtree(0, 1, false)
	if held.String() != "[1]" {
		t.Fatalf("cold subtree = %v, want [1], the region the held tombstone lives in", held)
	}
	if _, err := remote.walkNode(held); !IsNotFound(err) {
		t.Fatalf("the remote replica resolves %v (err %v): the tombstone was not held only here", held, err)
	}
	if got := local.ColdestSubtree(0, 1, true); got != nil {
		t.Errorf("liveOnly cold subtree = %v, want none", got)
	}
	checkTree(t, local)
	checkTree(t, remote)
}
