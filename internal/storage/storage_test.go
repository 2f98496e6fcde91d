package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

func buildDoc(t *testing.T) *doctree.Tree {
	t.Helper()
	tr := doctree.New()
	for _, fix := range []struct{ id, atom string }{
		{"[0(0:s1)]", "a"}, {"[(0:s2)]", "b"}, {"[0(1:s3)]", "c"},
		{"[1(0:s4)]", "d"}, {"[(1:s5)]", "e"}, {"[1(1:s6)]", "f"},
	} {
		if err := tr.InsertID(ident.MustParsePath(fix.id), fix.atom); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func roundTrip(t *testing.T, tr *doctree.Tree) *doctree.Tree {
	t.Helper()
	data := Encode(tr)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !reflect.DeepEqual(got.Content(), tr.Content()) {
		t.Fatalf("content mismatch: %v vs %v", got.Content(), tr.Content())
	}
	return got
}

func TestRoundTripBasic(t *testing.T) {
	tr := buildDoc(t)
	got := roundTrip(t, tr)
	// Identifiers must survive: look up an original id in the decoded tree.
	if !got.HasLive(ident.MustParsePath("[1(0:s4)]")) {
		t.Error("identifier lost in round trip")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	tr := doctree.New()
	got := roundTrip(t, tr)
	if got.Len() != 0 {
		t.Errorf("len = %d", got.Len())
	}
}

func TestRoundTripTombstonesAndMinis(t *testing.T) {
	tr := buildDoc(t)
	if _, err := tr.DeleteID(ident.MustParsePath("[(0:s2)]"), false); err != nil {
		t.Fatal(err)
	}
	// Concurrent-style minis and a mini-child.
	for _, fix := range []struct{ id, atom string }{
		{"[10(0:s7)]", "W"}, {"[10(0:s9)]", "Y"}, {"[10(0:s7)(1:s8)]", "X"},
	} {
		if err := tr.InsertID(ident.MustParsePath(fix.id), fix.atom); err != nil {
			t.Fatal(err)
		}
	}
	got := roundTrip(t, tr)
	s := got.Stats(ident.PaperCost(ident.SDIS))
	if s.DeadMinis != 1 {
		t.Errorf("tombstones = %d, want 1", s.DeadMinis)
	}
	if !got.HasLive(ident.MustParsePath("[10(0:s7)(1:s8)]")) {
		t.Error("mini-child lost")
	}
}

func TestRoundTripFlattened(t *testing.T) {
	tr := buildDoc(t)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, tr)
	s := got.Stats(ident.PaperCost(ident.SDIS))
	if s.FlatAtoms != 6 {
		t.Errorf("flat atoms = %d", s.FlatAtoms)
	}
}

func TestRoundTripMixed(t *testing.T) {
	tr := buildDoc(t)
	// Flatten the right subtree, keep the left live.
	if err := tr.Flatten(ident.Path{ident.J(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertID(ident.MustParsePath("[00(0:s9)]"), "z"); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, tr)
}

func TestRoundTripUDISCanonical(t *testing.T) {
	tr := buildDoc(t)
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	// Explode by touching, then add UDIS atoms.
	if _, err := tr.IDAt(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertID(ident.MustParsePath("[00(0:c3s2)]"), "u"); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, tr)
	if !got.HasLive(ident.MustParsePath("[00(0:c3s2)]")) {
		t.Error("UDIS disambiguator lost")
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := doctree.New()
	var live []ident.Path
	site := ident.SiteID(1)
	for step := 0; step < 500; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 65:
			d := ident.Dis{Site: site}
			site++
			var id ident.Path
			if len(live) == 0 {
				id = ident.Path{ident.M(1, d)}
			} else {
				base := live[rng.Intn(len(live))]
				if rng.Intn(2) == 0 {
					id = base.Child(ident.M(uint8(rng.Intn(2)), d))
				} else {
					id = base.StripLastDis().Child(ident.M(uint8(rng.Intn(2)), d))
				}
			}
			if tr.Exists(id) {
				continue
			}
			if err := tr.InsertID(id, "x"); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		default:
			i := rng.Intn(len(live))
			if _, err := tr.DeleteID(live[i], rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	roundTrip(t, tr)
}

// sameTree holds a decoded tree to the one it was encoded from: invariants,
// content, the paper's size statistics, the bytes it encodes back to, and
// — last, because asking explodes flat regions in both — every identifier.
func sameTree(t *testing.T, want, got *doctree.Tree, enc []byte) {
	t.Helper()
	if err := got.Check(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !reflect.DeepEqual(got.Content(), want.Content()) {
		t.Fatalf("content mismatch: %v vs %v", got.Content(), want.Content())
	}
	for _, cost := range []ident.Cost{ident.PaperCost(ident.SDIS), ident.PaperCost(ident.UDIS)} {
		ws, gs := want.Stats(cost), got.Stats(cost)
		ws.HeapBytes, gs.HeapBytes = 0, 0 // a decoded tree's slabs have no free records
		if ws != gs {
			t.Fatalf("stats mismatch:\n got %+v\nwant %+v", gs, ws)
		}
	}
	if re := Encode(got); !bytes.Equal(re, enc) {
		t.Fatalf("Encode(Decode(x)) != x: %d bytes vs %d", len(re), len(enc))
	}
	for i := 0; i < want.Len(); i++ {
		w, err := want.IDAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if g, err := got.IDAt(i); err != nil || !g.Equal(w) {
			t.Fatalf("IDAt(%d) = %v, %v; want %v", i, g, err, w)
		}
	}
}

// TestRoundTripProperty drives trees through random schedules of inserts by
// three sites, deletes (tombstoning under SDIS, pruning under UDIS),
// subtree and whole-document flattens and the explodes that later edits
// force, and round-trips them along the way and — right after a flatten, so
// flat regions are present — at the end.
func TestRoundTripProperty(t *testing.T) {
	for _, udis := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := doctree.New()
			var counter [4]uint32
			check := func() {
				enc := Encode(tr)
				got, err := Decode(enc)
				if err != nil {
					t.Fatalf("udis=%v seed %d: decode: %v", udis, seed, err)
				}
				sameTree(t, tr, got, enc)
			}
			flatten := func() {
				id, err := tr.IDAt(rng.Intn(tr.Len()))
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Flatten(id[:1+rng.Intn(len(id))].StripLastDis()); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 600; step++ {
				switch r := rng.Intn(100); {
				case tr.Len() == 0 || r < 55:
					d := ident.Dis{Site: ident.SiteID(1 + rng.Intn(3))}
					if udis {
						counter[d.Site]++
						d.Counter = counter[d.Site]
					}
					id := ident.Path{ident.M(uint8(rng.Intn(2)), d)}
					if tr.Len() > 0 {
						base, err := tr.IDAt(rng.Intn(tr.Len()))
						if err != nil {
							t.Fatal(err)
						}
						if rng.Intn(3) == 0 {
							base = base.StripLastDis()
						}
						id = base.Child(id[0])
					}
					if tr.Exists(id) {
						continue
					}
					if err := tr.InsertID(id, strings.Repeat("x", rng.Intn(4))+fmt.Sprint(step)); err != nil {
						t.Fatal(err)
					}
				case r < 88:
					if _, err := tr.DeleteAtIndex(rng.Intn(tr.Len()), udis, nil); err != nil {
						t.Fatal(err)
					}
				case r < 97:
					flatten()
				case r < 98:
					if err := tr.FlattenAll(); err != nil {
						t.Fatal(err)
					}
				default:
					check()
				}
			}
			if tr.Len() > 0 {
				flatten()
				if s := tr.Stats(ident.PaperCost(ident.SDIS)); s.FlatAtoms == 0 {
					t.Fatalf("udis=%v seed %d: final tree has no flat region: %+v", udis, seed, s)
				}
			}
			check()
		}
	}
}

// TestDecodeRefusesOlderFormat: there is one format. A stream of the
// previous one is refused with an error that names it.
func TestDecodeRefusesOlderFormat(t *testing.T) {
	_, err := Decode([]byte("TDC1\x01\x00"))
	if err == nil || !strings.Contains(err.Error(), "TDC1") {
		t.Errorf("TDC1 stream: %v, want an error naming the format", err)
	}
}

// TestDecodeErrors feeds the decoder one hostile or misspelled field per
// row. Head bytes: bits 0-1 children, 0x04 one mini, 0x08 many, 0x0c flat;
// a mini's bits (shifted up four in a one-mini head): 0x1/0x2 children,
// 0x4 dead, 0x8 disambiguator follows.
func TestDecodeErrors(t *testing.T) {
	const huge = "\xff\xff\xff\x7f"
	for _, tc := range []struct{ name, body, want string }{
		{"no magic", "", "bad magic"},
		{"foreign magic", "XXXX\x00\x00", "bad magic"},
		{"no site table", "TDC2", "varint"},
		{"no root", "TDC2\x00", "truncated"},
		{"site table size past the stream", "TDC2" + huge, "site count"},
		{"site beyond 48 bits", "TDC2\x01\x80\x80\x80\x80\x80\x80\x40\x00", "site table entry"},
		{"site table repeats a site", "TDC2\x02\x05\x05\x00", "site table entry"},
		{"site table descends", "TDC2\x02\x05\x04\x00", "site table entry"},
		{"site table entry nothing uses", "TDC2\x01\x05\x00", "never used"},
		{"overlong varint", "TDC2\x80\x00\x00", "varint"},
		{"mini count past the stream", "TDC2\x00\x01\x08" + huge, "mini count"},
		{"flat atom count past the stream", "TDC2\x00\x0c" + huge, "flat atom count"},
		{"atom length past the stream", "TDC2\x00\x0c\x01\x05a", "atom byte count"},
		{"site index past the table", "TDC2\x01\x05\x01\xc4\x02\x00", "site index"},
		{"counter beyond 32 bits", "TDC2\x01\x05\x01\xc4\x01\x80\x80\x80\x80\x10", "counter"},
		{"promised child missing", "TDC2\x00\x03\x00", "truncated"},
		{"promised mini child missing", "TDC2\x00\x01\x54", "truncated"},
		{"live mini at the root", "TDC2\x00\x04\x01x", "root"},
		{"dead mini at the root", "TDC2\x00\x44", "root"},
		{"many minis at the root", "TDC2\x01\x05\x08\x02\x04\x0c\x01\x00", "root"},
		{"repeated disambiguator written out", "TDC2\x01\x05\x03\xc4\x01\x00\xc4\x01\x00", "leaves it out"},
		{"canonical written after canonical", "TDC2\x00\x01\xc4\x00", "leaves it out"},
		{"canonical spelled through the table", "TDC2\x02\x00\x05\x03\xc4\x02\x00\xc4\x01\x00", "through the site table"},
		{"empty many node", "TDC2\x00\x01\x08\x00", "many-mini node of 0"},
		{"many node of one", "TDC2\x00\x01\x08\x01\x04", "many-mini node of 1"},
		{"minis out of order", "TDC2\x02\x05\x06\x01\x08\x02\x0c\x02\x00\x0c\x01\x00", "out of order"},
		{"minis repeat", "TDC2\x01\x05\x01\x08\x02\x0c\x01\x00\x04", "out of order"},
		{"empty head with mini bits", "TDC2\x00\x10", "head"},
		{"flat head with a child", "TDC2\x00\x0d\x00\x00", "head"},
		{"mini byte with unused bits", "TDC2\x00\x01\x08\x02\x14\x04", "mini byte"},
		{"trailing bytes", "TDC2\x00\x00\x00", "trailing"},
	} {
		_, err := Decode([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The same streams, spelled right, decode.
	for _, body := range []string{
		"TDC2\x00\x00",
		"TDC2\x01\x05\x03\xc4\x01\x00\x44",
		"TDC2\x02\x05\x06\x01\x08\x02\x0c\x01\x00\x0c\x02\x00",
	} {
		tr, err := Decode([]byte(body))
		if err != nil {
			t.Errorf("%q: %v", body, err)
		} else if err := tr.Check(); err != nil {
			t.Errorf("%q: %v", body, err)
		}
	}
	// Every truncation of a real stream is an error: presence bits promise
	// exactly the nodes that follow, so no prefix is itself a stream.
	data := Encode(buildDoc(t))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("stream cut at %d of %d accepted", cut, len(data))
		}
	}
}

// TestSparseTreeCostsOnlyItsNodes: absence lives in the parent's presence
// bits, so a right spine of 64 atoms is 64 nodes in the stream and nothing
// for the 2^64 slots beside them: one head byte per node, one site table,
// one disambiguator for the whole spine, and the atoms.
func TestSparseTreeCostsOnlyItsNodes(t *testing.T) {
	tr := doctree.New()
	id := ident.Path{}
	for i := 0; i < 64; i++ {
		id = append(id, ident.J(1))
	}
	for i := 0; i < 64; i++ {
		atomID := id[:i+1].Clone()
		atomID[i] = ident.M(1, ident.Dis{Site: 1})
		if err := tr.InsertID(atomID, "x"); err != nil {
			t.Fatal(err)
		}
	}
	data := Encode(tr)
	if want := len("TDC2") + 2 + 1 + 64 + 2 + 64*2; len(data) != want {
		t.Errorf("sparse spine encoded to %d bytes, want %d", len(data), want)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 {
		t.Errorf("len = %d", got.Len())
	}
}

func TestMeasure(t *testing.T) {
	tr := buildDoc(t)
	m := Measure(tr)
	if m.AtomBytes != 6 {
		t.Errorf("atom bytes = %d", m.AtomBytes)
	}
	if m.TotalBytes <= m.AtomBytes {
		t.Errorf("total %d should exceed atoms %d", m.TotalBytes, m.AtomBytes)
	}
	if m.OverheadBytes != m.TotalBytes-m.AtomBytes {
		t.Error("overhead arithmetic")
	}
	if m.OverheadPercent() <= 0 {
		t.Error("overhead percent")
	}
	// Flattening must shrink on-disk overhead dramatically.
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	m2 := Measure(tr)
	if m2.OverheadBytes >= m.OverheadBytes {
		t.Errorf("flatten did not reduce overhead: %d -> %d", m.OverheadBytes, m2.OverheadBytes)
	}
	empty := Measurement{}
	if empty.OverheadPercent() != 0 {
		t.Error("empty overhead percent")
	}
}
