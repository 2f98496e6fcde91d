package doctree

import (
	"fmt"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

// TestFreeSearchPrunesTombstoneChains is the regression test for the
// allocation slowdown: a deep chain of tombstones contains no reusable
// slots, and the empty-slot subtree counters must let the search reject it
// without walking it.
func TestFreeSearchPrunesTombstoneChains(t *testing.T) {
	tr := New()
	// Build a deep right-spine of tombstones.
	id := ident.Path{ident.M(1, ident.Dis{Site: 1})}
	if err := tr.InsertID(id, "root-atom"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		id = id.Child(ident.M(1, ident.Dis{Site: 1}))
		if err := tr.InsertID(id, "x"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if _, err := tr.DeleteID(id, false); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	checkTree(t, tr)
	// No empty slots exist anywhere: the scan must answer at once, skipping
	// the chain on its counters rather than walking it. Assert correctness
	// here and let the benchmark below document the speed.
	first := ident.MustParsePath("[(1:s1)]")
	if got := freeAfter(t, tr, first); got != nil {
		t.Errorf("found a free slot %v in a tombstone-only chain", got)
	}
	// Now reserve a region before the first atom: the scan from the
	// document start must find it.
	if err := tr.Reserve(ident.Path{ident.J(0)}, 2); err != nil {
		t.Fatal(err)
	}
	got := freeAfter(t, tr, nil)
	if got == nil {
		t.Fatal("reserved slot not found")
	}
	if !ident.Between(nil, got, first) {
		t.Errorf("slot %v not before %v", got, first)
	}
	checkTree(t, tr)
}

// TestEmptyCountsSurviveChurn cross-checks the emptyN counters (via Check)
// through every lifecycle: reserve, fill, delete with and without pruning,
// flatten, explode, and snapshot restore.
func TestEmptyCountsSurviveChurn(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "[(1:s1)]", "a")
	if err := tr.Reserve(ident.Path{ident.J(1), ident.J(1)}, 3); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Fill two reserved slots.
	p := ident.MustParsePath("[(1:s1)]")
	for i := 0; i < 2; i++ {
		id := freeAfter(t, tr, p)
		if id == nil {
			t.Fatal("no reserved slot found")
		}
		if err := tr.InsertID(id, fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr)
		p = id
	}
	// Delete one with pruning (UDIS): slot may become empty again.
	if _, err := tr.DeleteID(p, true); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Tombstone the other (SDIS).
	id, err := tr.IDAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.DeleteID(id, false); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Flatten everything, explode by touching, keep checking.
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if _, err := tr.IDAt(0); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
}

// BenchmarkFreeSearchTombstoneChain prices the scan on a tombstone-heavy
// document with no empty slot: it must reject the chain on its counters
// without walking it.
func BenchmarkFreeSearchTombstoneChain(b *testing.B) {
	tr := New()
	id := ident.Path{ident.M(1, ident.Dis{Site: 1})}
	if err := tr.InsertID(id, "root-atom"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		id = id.Child(ident.M(1, ident.Dis{Site: 1}))
		if err := tr.InsertID(id, "x"); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.DeleteID(id, false); err != nil {
			b.Fatal(err)
		}
	}
	first, d := ident.MustParsePath("[(1:s1)]"), ident.Dis{Site: 2}
	at := routeSlot(tr, first)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got, _ := tr.FreeSlotAfter(nil, first, at, d); got != nil {
				b.Fatal("unexpected slot")
			}
		}
	})
}

// BenchmarkFreeSearchDeep prices the scan where a root-down walk would be
// at its worst: a 64-level spine of minis over one reserved subtree,
// searched from the atom at the bottom of the spine. The scan starts at
// that atom and finds the slot below it.
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
	at := routeSlot(tr, p)
	var scratch ident.Path
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if scratch, _ = tr.FreeSlotAfter(scratch[:0], p, at, d); scratch == nil {
				b.Fatal("reserved slot not found")
			}
		}
	})
}
