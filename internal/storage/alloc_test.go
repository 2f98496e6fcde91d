package storage

import (
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// buildTree returns a tree holding n copies of atom.
func buildTree(t testing.TB, n int, atom string) *doctree.Tree {
	t.Helper()
	tr := doctree.New()
	var prev ident.Path
	for i := 0; i < n; i++ {
		id := prev.Child(ident.M(1, ident.Dis{Counter: 1, Site: 1}))
		if err := tr.InsertID(id, atom); err != nil {
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
	tr := buildTree(t, 512, "x")
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

// TestDecodeAllocs guards the decoder's atom loading: a flattened
// document's atoms go into the atom store's blocks of 64, each block's
// buffer sized once, so decoding is bounded by the tree's structure and a
// term per block, not one allocation per atom, whatever the atoms' size.
// A string per atom cost 519 allocations for 512 atoms of 12 bytes.
func TestDecodeAllocs(t *testing.T) {
	for _, atom := range []string{"x", "twelve bytes", strings.Repeat("forty-two!", 4) + "ab"} {
		tr := buildTree(t, 512, atom)
		if err := tr.FlattenAll(); err != nil {
			t.Fatal(err)
		}
		data := Encode(tr)
		got := testing.AllocsPerRun(50, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		// Structure for the decoded tree (the tree, its root chunk, the
		// decoder and its site table), then per block of 64 handles (513 are
		// handed out, the nil one included) its buffer and a quarter of the
		// four-block allocation, and, amortised over the blocks, the block
		// directory's doublings and the loader's scratch's, from one atom to
		// a block's 64: three a block covers them.
		blocks := 512/64 + 1
		if bound := 10 + 3*blocks; got > float64(bound) {
			t.Errorf("Decode(512 atoms of %d bytes): %.1f allocs/op, want <= %d (structure and 3 a block of 64 atoms)", len(atom), got, bound)
		}
	}
}
