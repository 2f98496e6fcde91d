package storage_test

import (
	"bytes"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
)

// seedEncodings builds snapshot corpora from real documents, so the fuzzer
// starts from every shape a head byte can announce: an empty tree; one site's
// live and dead single minis; a flattened (compacted) tree; and three UDIS
// sites racing for one position above an exploded-then-edited region — a
// many-mini node, a site table, canonical and written disambiguators, and a
// flat region beside nodes; minis with children nested two deep; SDIS
// tombstones held in their nodes beside dead minis that keep a record; live
// minis held in their nodes beside a live mini with a dead sibling; and
// runs of tombs held in one node each.
func seedEncodings(f *testing.F) [][]byte {
	var seeds [][]byte

	empty, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(empty.Tree()))

	doc, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	for i, atom := range []string{"one", "two", "three", "four", "five"} {
		if _, err := doc.InsertAt(i, atom); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := doc.DeleteAt(1); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(doc.Tree()))

	flat, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	for i, atom := range []string{"a", "b", "c"} {
		if _, err := flat.InsertAt(i, atom); err != nil {
			f.Fatal(err)
		}
	}
	if err := flat.FlattenAll(); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(flat.Tree()))

	tree := flat.Tree()
	for i, id := range []string{"[(1:c1s7)]", "[(1:c1s8)]", "[(1:c2s9)]", "[(1:c1s8)(0:c3s7)]", "[00(1:c4s7)]"} {
		if err := tree.InsertID(ident.MustParsePath(id), string(rune('p'+i))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := tree.DeleteID(ident.MustParsePath("[(1:c1s8)]"), false); err != nil {
		f.Fatal(err)
	}
	if err := tree.Flatten(ident.MustParsePath("[0]")); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(tree))

	// Minis with children two levels deep: the middle of three minis has
	// both children, and one of those holds minis with children of their
	// own, one of them dead.
	nestedDoc, err := core.NewDocument(core.Config{Site: 7})
	if err != nil {
		f.Fatal(err)
	}
	nested := nestedDoc.Tree()
	for i, id := range []string{"[(1:c1s7)]", "[(1:c1s8)]", "[(1:c1s9)]",
		"[(1:c1s8)(0:c2s7)]", "[(1:c1s8)(1:c2s9)]", "[(1:c1s8)(1:c3s7)]",
		"[(1:c1s8)(1:c2s9)(0:c4s8)]", "[(1:c1s8)(1:c2s9)(1:c4s9)]", "[(1:c1s8)(1:c3s7)1(0:c5s9)]"} {
		if err := nested.InsertID(ident.MustParsePath(id), string(rune('k'+i))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := nested.DeleteID(ident.MustParsePath("[(1:c1s8)(1:c2s9)]"), false); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(nested))

	// Tombstones: a lone dead mini whose site needs more than 32 bits, and
	// a dead canonical one, which the tree holds as solos in their nodes;
	// and dead minis that keep their records: one beside a live sibling,
	// one with mini-children.
	tombDoc, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	tombs := tombDoc.Tree()
	for i, id := range []string{"[(0:s4294967303)]", "[(1:s8)]", "[(1:s9)]", "[1(1:⊥)]",
		"[(1:s9)(0:s5)]", "[(1:s9)(0:s5)(1:s6)]"} {
		if err := tombs.InsertID(ident.MustParsePath(id), string(rune('t'+i))); err != nil {
			f.Fatal(err)
		}
	}
	for _, id := range []string{"[(0:s4294967303)]", "[(1:s8)]", "[1(1:⊥)]", "[(1:s9)(0:s5)]"} {
		if _, err := tombs.DeleteID(ident.MustParsePath(id), false); err != nil {
			f.Fatal(err)
		}
	}
	seeds = append(seeds, storage.Encode(tombs))

	// Live solos: a lone live mini whose site needs more than 32 bits and a
	// live canonical one, held in their nodes; and a live mini beside a
	// dead sibling, both keeping their records.
	soloDoc, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	solos := soloDoc.Tree()
	for i, id := range []string{"[(0:s4294967303)]", "[(1:s8)]", "[(1:s9)]", "[1(1:⊥)]"} {
		if err := solos.InsertID(ident.MustParsePath(id), string(rune('l'+i))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := solos.DeleteID(ident.MustParsePath("[(1:s9)]"), false); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, storage.Encode(solos))

	// Runs: four tombs of a site that needs more than 32 bits, turning
	// right, left and right, above a node with two live children; two
	// canonical tombs beside them; and a tomb whose only child is a
	// tomb of another site, which is no run.
	runDoc, err := core.NewDocument(core.Config{Site: 5})
	if err != nil {
		f.Fatal(err)
	}
	runs := runDoc.Tree()
	for i, id := range []string{"[(0:s4294967303)]", "[0(1:s4294967303)]", "[01(0:s4294967303)]", "[010(1:s4294967303)]",
		"[0101(0:s6)]", "[0101(1:s6)]", "[(1:⊥)]", "[1(0:⊥)]", "[10(0:s8)]", "[100(1:s9)]"} {
		if err := runs.InsertID(ident.MustParsePath(id), string(rune('a'+i))); err != nil {
			f.Fatal(err)
		}
	}
	for _, id := range []string{"[01(0:s4294967303)]", "[(0:s4294967303)]", "[010(1:s4294967303)]", "[0(1:s4294967303)]",
		"[1(0:⊥)]", "[(1:⊥)]", "[10(0:s8)]", "[100(1:s9)]"} {
		if _, err := runs.DeleteID(ident.MustParsePath(id), false); err != nil {
			f.Fatal(err)
		}
	}
	seeds = append(seeds, storage.Encode(runs))

	return seeds
}

// FuzzStorageDecode is the snapshot-boundary fuzz target: arbitrary bytes
// must never panic Decode, and whatever it accepts is a tree that satisfies
// the structural invariants — Decode does not run Check itself, it is held
// to it here — and encodes back to exactly the accepted bytes: one spelling
// per tree.
func FuzzStorageDecode(f *testing.F) {
	for _, s := range seedEncodings(f) {
		f.Add(s)
	}
	f.Add([]byte("TDC1\x01\x01\x00\x00")) // the previous format: refused by name
	f.Add([]byte("TDC2\x02\x05\x06\x01\x08\x02\x0c\x01\x00\x0c\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := storage.Decode(data)
		if err != nil {
			return
		}
		if err := tree.Check(); err != nil {
			t.Fatalf("Decode accepted a tree violating invariants: %v", err)
		}
		if re := storage.Encode(tree); !bytes.Equal(re, data) {
			t.Fatalf("accepted stream is not the tree's one spelling:\n got %x\nback %x", data, re)
		}
	})
}

// TestDecodeRoundTripSeeds pins the seed corpus through the full
// round trip outside fuzzing mode, so plain `go test` exercises it.
func TestDecodeRoundTripSeeds(t *testing.T) {
	doc, err := core.NewDocument(core.Config{Site: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, atom := range []string{"alpha", "beta", "gamma", "delta"} {
		if _, err := doc.InsertAt(i, atom); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := doc.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	enc := storage.Encode(doc.Tree())
	tree, err := storage.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storage.Encode(tree), enc) {
		t.Fatal("encode/decode/encode not stable")
	}
}
