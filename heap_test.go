package treedoc

import (
	"runtime"
	"testing"

	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/trace"
)

// heapAfterGC is HeapAlloc once two collections have run (the second frees
// what the first one's finalizers released).
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFlattenReleasesTree replays a ~10k-op history into a Doc and flattens
// it: the paper's "a compacted Treedoc reduces to a sequential array" must
// hold on the Go heap, not only in the cost model. Before the tree's nodes
// moved into slabs a flatten freed nothing — the detached nodes stayed
// reachable through the allocator's chunks and each other — and the
// document cost 2,046 B/atom before the flatten and 2,062 B/atom after.
func TestFlattenReleasesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-op history")
	}
	tr, err := trace.Generate(trace.Profile{
		Name: "history.tex", Granularity: trace.Lines, Seed: 3,
		InitialAtoms: 400, FinalAtoms: 3000, Revisions: 250, AtomBytes: 42,
		EditsPerRevision: 20, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The trace owns the atoms' text, so the measured differences are the
	// document's structure alone: tree records before the flatten; after it
	// one string header per atom, the replica's identifier arena chunk
	// (96 KiB whatever the document's size) and an empty slab chunk.
	base := heapAfterGC()
	doc, err := New(WithSite(1))
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	if _, err := doc.InsertRunAt(0, tr.Initial); err != nil {
		t.Fatal(err)
	}
	for _, rev := range tr.Revisions {
		for _, e := range rev.Ops {
			if e.Kind == diff.Delete {
				_, err = doc.DeleteAt(e.Index)
			} else {
				_, err = doc.InsertAt(e.Index, e.Atom)
			}
			if err != nil {
				t.Fatal(err)
			}
			ops++
		}
		doc.EndRevision()
	}
	st := doc.Stats().Tree
	atoms := float64(st.LiveAtoms)
	atomBytes := float64(st.DocBytes) / atoms
	before := float64(heapAfterGC()-base) / atoms
	if err := doc.Flatten(); err != nil {
		t.Fatal(err)
	}
	after := float64(heapAfterGC()-base) / atoms
	t.Logf("%d ops, %d atoms of %.0f B: %.0f B/atom before the flatten (slabs %d B/atom), %.0f B/atom after",
		ops, st.LiveAtoms, atomBytes, before, st.HeapBytes/st.LiveAtoms, after)
	if after > 2*atomBytes {
		t.Errorf("flattened document costs %.0f B/atom, want <= %.0f (2x its atoms' %.0f B)", after, 2*atomBytes, atomBytes)
	}
	if after >= before/2 {
		t.Errorf("flatten freed too little: %.0f -> %.0f B/atom", before, after)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(doc)
}
