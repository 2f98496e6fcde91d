package storage

import (
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// buildTree returns a tree holding n single-character atoms.
func buildTree(t testing.TB, n int) *doctree.Tree {
	t.Helper()
	tr := doctree.New()
	var prev ident.Path
	for i := 0; i < n; i++ {
		id := prev.Child(ident.M(1, ident.Dis{Counter: 1, Site: 1}))
		if err := tr.InsertID(id, "x"); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	return tr
}

// TestEncodeAllocs guards the pooled-scratch contract of the snapshot
// encoder: Encode of a flattened document builds in reused scratch and
// returns one exact-size copy, so the steady-state cost is a handful of
// allocations, not one per append-growth doubling. The compacted form is
// the paper's best case ("a compacted Treedoc reduces to a sequential
// array") and the common shape for snapshot-heavy workloads.
func TestEncodeAllocs(t *testing.T) {
	tr := buildTree(t, 512)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		Encode(tr)
	})
	// One exact-size result plus the encoder's handle queue; anything
	// beyond that means append-growth is back.
	if got > 2 {
		t.Errorf("Encode(flattened tree): %.1f allocs/op, want <= 2", got)
	}
}

// TestDecodeAllocs guards the decoder's atom conversion: a single-byte
// atom is the runtime's static one-byte string, so decoding is bounded by
// the tree structure, not one string per atom. Allocating each atom would
// cost this tree ~512 extra allocations per decode.
func TestDecodeAllocs(t *testing.T) {
	tr := buildTree(t, 512)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	data := Encode(tr)
	got := testing.AllocsPerRun(50, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	// Structure for the decoded tree (the tree, its root chunk, the flat
	// slice, the decoder and its site table) — but no per-atom string
	// allocations.
	if got > 10 {
		t.Errorf("Decode(512-atom snapshot): %.1f allocs/op, want <= 10 (atoms must not allocate)", got)
	}
}
