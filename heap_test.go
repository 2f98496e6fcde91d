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

// heapHistory is the ~10k-op history the heap tests replay.
var heapHistory = trace.Profile{
	Name: "history.tex", Granularity: trace.Lines, Seed: 3,
	InitialAtoms: 400, FinalAtoms: 3000, Revisions: 250, AtomBytes: 42,
	EditsPerRevision: 20, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
}

// TestFlattenReleasesTree replays a ~10k-op history into a Doc and flattens
// it: the paper's "a compacted Treedoc reduces to a sequential array" must
// hold on the Go heap, not only in the cost model. Before the tree's nodes
// moved into slabs a flatten freed nothing — the detached nodes stayed
// reachable through the allocator's chunks and each other — and the
// document cost 2,046 B/atom before the flatten and 2,062 B/atom after;
// while a flattened region held a Go string per atom it cost 33 B/atom of
// structure after the flatten, where a run of the atom store's handles
// costs 18.
func TestFlattenReleasesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-op history")
	}
	tr, err := trace.Generate(heapHistory)
	if err != nil {
		t.Fatal(err)
	}
	// The document holds its own copy of the atoms' text, packed in the
	// tree's atom blocks before the flatten and after it, so the text's
	// bytes (DocBytes) come off both readings, and what is left is the
	// document's structure: tree records before the flatten; after it a
	// 4-byte end per atom in a 280-byte block per 64 atoms, the size-class
	// rounding of each block's text buffer (under an eighth of the text),
	// the replica's identifier scratch (six buffers one identifier long, at
	// most doubled, as TestWriterRetainsNoIdentifiers counts them) and 4 KiB
	// for the fresh tree's root chunk and the Doc itself.
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
	ds := doc.Stats()
	st := ds.Tree
	atoms := float64(st.LiveAtoms)
	atomBytes := float64(st.DocBytes) / atoms
	before := float64(heapAfterGC()-base)/atoms - atomBytes
	if err := doc.Flatten(); err != nil {
		t.Fatal(err)
	}
	after := float64(heapAfterGC()-base)/atoms - atomBytes
	t.Logf("%d ops, %d atoms of %.0f B: %.0f B/atom of structure before the flatten (slabs %d B/atom), %.0f B/atom after",
		ops, st.LiveAtoms, atomBytes, before, st.HeapBytes/st.LiveAtoms, after)
	scratch := 6 * 2 * 24 * ds.Height
	if bound := 280.0/64 + atomBytes/8 + float64(scratch+4<<10)/atoms; after > bound {
		t.Errorf("flattened document costs %.0f B/atom, want <= %.1f (a 280-B block per 64 atoms, an eighth of the text, %d B of scratch and 4 KiB)",
			after, bound, scratch)
	}
	if after >= before/2 {
		t.Errorf("flatten freed too little: %.0f -> %.0f B/atom", before, after)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(doc)
}

// TestWriterRetainsNoIdentifiers replays a ~10k-op history into a Doc the
// way a writer does — a revision's consecutive inserts as one run — and
// drops every operation it mints, as a writer whose engine has broadcast
// them does. What the Doc then keeps alive is its tree and a handful of
// scratch buffers one identifier long: an identifier at rest belongs to the
// operation that carries it, not to the document. (Until identifiers were
// held packed a writer pinned a 96 KiB chunk of the arena its operations'
// identifiers were cut from, whatever its size.)
func TestWriterRetainsNoIdentifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-op history")
	}
	tr, err := trace.Generate(heapHistory)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := New(WithSite(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.InsertRunAt(0, tr.Initial); err != nil {
		t.Fatal(err)
	}
	for _, rev := range tr.Revisions {
		for i := 0; i < len(rev.Ops); i++ {
			e := rev.Ops[i]
			if e.Kind == diff.Delete {
				_, err = doc.DeleteAt(e.Index)
			} else {
				atoms := []string{e.Atom}
				for ; i+1 < len(rev.Ops) && rev.Ops[i+1].Kind == diff.Insert && rev.Ops[i+1].Index == e.Index+len(atoms); i++ {
					atoms = append(atoms, rev.Ops[i+1].Atom)
				}
				_, err = doc.InsertRunAt(e.Index, atoms)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		doc.EndRevision()
	}
	st := doc.Stats()
	with := heapAfterGC()
	runtime.KeepAlive(doc)
	doc = nil
	// The Doc keeps its own packed copy of the atoms' text; less that, what
	// it keeps alive is structure.
	retained := int(with-heapAfterGC()) - st.Tree.DocBytes
	// Beyond the slabs as Stats counts them — every chunk fills its size
	// class exactly (TestRecordLayout), so the allocator adds no slack —
	// six buffers (five in the document, the walk cache's in the tree) each
	// hold one identifier's elements, at most doubled by append's growth.
	// 24 B x 6 x 65 levels is the 9 KiB a benchmark writer keeps; nothing
	// grows with the operations minted.
	scratch := 6 * 2 * 24 * st.Height
	bound := st.Tree.HeapBytes + scratch + 4<<10
	t.Logf("%d atoms, height %d: the Doc retains %d B beside its %d B of text, its tree's slabs are %d B", st.Tree.LiveAtoms, st.Height, retained, st.Tree.DocBytes, st.Tree.HeapBytes)
	if retained > bound {
		t.Errorf("a writer's Doc retains %d B, want <= %d (slabs %d B, scratch %d B, 4 KiB)",
			retained, bound, st.Tree.HeapBytes, scratch)
	}
	runtime.KeepAlive(tr)
}
