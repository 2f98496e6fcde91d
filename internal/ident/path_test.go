package ident

import (
	"sort"
	"testing"
)

// dsite returns an SDIS disambiguator for site n, used throughout the tests
// to mirror the paper's dA, dB, … notation.
func dsite(n SiteID) Dis { return Dis{Site: n} }

func TestPathStringParseRoundTrip(t *testing.T) {
	paths := []string{
		"[(1:s1)]",
		"[10(0:s25)]",
		"[10(0:s3)(1:s4)]",
		"[1110(0:c3s1)]",
		"[(0:⊥)]",
		"[01(1:⊥)]",
	}
	for _, s := range paths {
		p, err := ParsePath(s)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	bad := []string{
		"",                            // no brackets
		"[10",                         // unterminated
		"[2]",                         // bad bit
		"[(0:s1]",                     // unterminated mini
		"[(2:s1)]",                    // bad mini bit
		"[(0;s1)]",                    // bad separator
		"[(0:x1)]",                    // bad dis
		"[(0:c1)]",                    // counter without site
		"[(0:s99999999999999999999)]", // overflow
	}
	for _, s := range bad {
		if _, err := ParsePath(s); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", s)
		}
	}
}

// TestFigure2Order reproduces Figure 2 of the paper: the document "abcdef"
// with one atom per site, laid out as the complete tree of Figure 1. The
// paper's figure places atom c at the tree root; our root holds no atoms
// (the empty Path), so the same shape sits one level down: the heap layout
// a=[00], b=[0], c=[01], d=[10], e=[1], f=[11], which must sort in document
// order under the infix walk.
func TestFigure2Order(t *testing.T) {
	ids := map[string]string{
		"a": "[0(0:s1)]",
		"b": "[(0:s2)]",
		"c": "[0(1:s3)]",
		"d": "[1(0:s4)]",
		"e": "[(1:s5)]",
		"f": "[1(1:s6)]",
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	type pair struct {
		atom string
		id   Path
	}
	var all []pair
	for atom, s := range ids {
		all = append(all, pair{atom, MustParsePath(s)})
	}
	sort.Slice(all, func(i, j int) bool { return Less(all[i].id, all[j].id) })
	for i, p := range all {
		if p.atom != want[i] {
			t.Fatalf("position %d = %q, want %q (order %v)", i, p.atom, want[i], all)
		}
	}
}

// TestFigure3And4Order reproduces the concurrent-insert scenario of
// Figures 3 and 4: W and Y inserted concurrently between c and d become
// mini-siblings ordered by disambiguator (dW < dY); X inserted between
// W and Y becomes a child of mini-node W (the paper's [10(0:dW)(1:dX)]);
// and Z inserted between Y and d lands in the major-right child of the
// W/Y node (the paper's [100(1:dZ)]). The paper roots this scenario at
// atom c; our root holds no atoms, so the identifiers carry c's position
// [(1:s3)] as prefix context and the W/Y node is [110] instead of [100].
func TestFigure3And4Order(t *testing.T) {
	c := MustParsePath("[(1:s3)]")
	d := MustParsePath("[1(1:s4)]")
	w := MustParsePath("[11(0:s7)]") // dW = s7
	y := MustParsePath("[11(0:s9)]") // dY = s9 > dW
	x := MustParsePath("[11(0:s7)(1:s8)]")
	z := MustParsePath("[110(1:s10)]") // inserted between Y and d (Fig 3 text)

	wantOrder := []struct {
		name string
		id   Path
	}{
		{"c", c}, {"W", w}, {"X", x}, {"Y", y}, {"Z", z}, {"d", d},
	}
	for i := 0; i < len(wantOrder)-1; i++ {
		a, b := wantOrder[i], wantOrder[i+1]
		if Compare(a.id, b.id) >= 0 {
			t.Errorf("want %s %v < %s %v", a.name, a.id, b.name, b.id)
		}
	}
}

// TestFigure5BalancedID checks the balanced-growth identifier from
// Section 4.1: appending g to the Figure 2 document grows the tree by
// ⌈log2(h)⌉+1 = 3 levels, yielding [1110(0:d)].
func TestFigure5BalancedID(t *testing.T) {
	f := MustParsePath("[1(1:s6)]")
	g := MustParsePath("[1110(0:s7)]")
	if Compare(f, g) >= 0 {
		t.Errorf("g must sort after f: %v >= %v", f, g)
	}
	// g is the smallest identifier in the grown subtree rooted at [111]:
	// every other slot in that subtree sorts after it.
	later := []string{"[111(0:s1)]", "[1110(1:s1)]", "[(1:s1)]"} // last: future root-right sibling region n/a
	_ = later
	for _, s := range []string{"[111(0:s1)]", "[1110(1:s1)]", "[1111(0:s1)]", "[111(1:s1)]"} {
		o := MustParsePath(s)
		if Compare(g, o) >= 0 {
			t.Errorf("g %v must sort before grown-subtree slot %v", g, o)
		}
	}
}

func TestCompareTable(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{"equal", "[(1:s1)]", "[(1:s1)]", 0},
		{"bit order at root", "[(0:s9)]", "[(1:s1)]", -1},
		{"left child before parent", "[1(0:s1)]", "[(1:s2)]", -1},
		{"right child after parent", "[1(1:s1)]", "[(1:s2)]", +1},
		{"mini order", "[10(0:s3)]", "[10(0:s5)]", -1},
		{"canonical mini first", "[10(0:⊥)]", "[10(0:s1)]", -1},
		{"major-left subtree before minis", "[100(0:s9)]", "[10(0:s1)]", -1},
		{"major-left subtree before minis, same bit", "[1010(0:s9)]", "[10(1:s1)]", -1},
		{"minis before major-right subtree", "[10(1:s9)]", "[1011(0:s1)]", -1},
		{"mini-left subtree before mini atom", "[1(0:s4)(0:s9)]", "[1(0:s4)]", -1},
		{"mini-right subtree after mini atom", "[1(0:s4)(1:s1)]", "[1(0:s4)]", +1},
		{"mini subtrees nest between sibling minis", "[1(0:s4)(1:s9)]", "[1(0:s5)]", -1},
		{"UDIS counter dominates site", "[(0:c1s9)]", "[(0:c2s1)]", -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := MustParsePath(tt.a), MustParsePath(tt.b)
			if got := Compare(a, b); got != tt.want {
				t.Errorf("Compare(%s, %s) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
			if got := Compare(b, a); got != -tt.want {
				t.Errorf("Compare(%s, %s) = %d, want %d", tt.b, tt.a, got, -tt.want)
			}
		})
	}
}

func TestBetween(t *testing.T) {
	p := MustParsePath("[(0:s1)]")
	n := MustParsePath("[(0:s1)(1:s2)]")
	f := MustParsePath("[(1:s1)]")
	if !Between(p, n, f) {
		t.Errorf("Between(%v, %v, %v) = false", p, n, f)
	}
	if !Between(nil, p, f) {
		t.Error("nil lower bound should act as -inf")
	}
	if !Between(p, f, nil) {
		t.Error("nil upper bound should act as +inf")
	}
	if Between(p, p, f) {
		t.Error("Between must be strict at the lower bound")
	}
	if Between(p, f, f) {
		t.Error("Between must be strict at the upper bound")
	}
}

func TestValidate(t *testing.T) {
	if err := (Path{}).Validate(); err == nil {
		t.Error("empty path validated as atom identifier")
	}
	if err := MustParsePath("[10(0:s1)]").Validate(); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (Path{J(1)}).Validate(); err == nil {
		t.Error("path ending in major element validated as atom identifier")
	}
	if err := (Path{{Bit: 2, Kind: Mini}}).Validate(); err == nil {
		t.Error("bit 2 validated")
	}
	if err := (Path{{Bit: 0, Kind: 0}}).Validate(); err == nil {
		t.Error("kind 0 validated")
	}
	// The tree stores sites in 48 bits: a wider one must stop here, in
	// atom identifiers and structural paths alike.
	wide := M(1, Dis{Site: MaxSiteID + 1})
	if err := (Path{wide}).Validate(); err == nil {
		t.Error("49-bit site validated")
	}
	if err := (Path{wide, J(0)}).ValidateStructural(); err == nil {
		t.Error("49-bit site validated in a structural path")
	}
	if err := (Path{M(1, Dis{Site: MaxSiteID})}).Validate(); err != nil {
		t.Errorf("48-bit site rejected: %v", err)
	}
}

func TestPathHelpers(t *testing.T) {
	p := MustParsePath("[10(0:s3)]")
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if p.IsRoot() || !(Path{}).IsRoot() {
		t.Error("IsRoot misbehaves")
	}
	if p.Last() != M(0, dsite(3)) {
		t.Errorf("Last = %v", p.Last())
	}
	q := p.Clone()
	q[0] = J(0)
	if p[0] != J(1) {
		t.Error("Clone aliases the original")
	}
	c := p.Child(M(1, dsite(4)))
	if c.String() != "[10(0:s3)(1:s4)]" {
		t.Errorf("Child = %s", c)
	}
	if p.String() != "[10(0:s3)]" {
		t.Error("Child mutated the parent")
	}
	s := p.StripLastDis()
	if s.String() != "[100]" {
		t.Errorf("StripLastDis = %s, want [100]", s)
	}
	if !c.HasPrefix(p) || p.HasPrefix(c) {
		t.Error("HasPrefix misbehaves")
	}
	if !p.Equal(p.Clone()) || p.Equal(s) {
		t.Error("Equal misbehaves")
	}
	var nilPath Path
	if nilPath.Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestPathBits(t *testing.T) {
	sdis := PaperCost(SDIS)
	udis := PaperCost(UDIS)
	tests := []struct {
		path string
		cost Cost
		want int
	}{
		// Pure canonical path: bits only (Section 4.2: after explode, a
		// path is a simple bitstring).
		{"[01(1:⊥)]", sdis, 3},
		// One SDIS disambiguator: 3 bits + 48.
		{"[01(1:s2)]", sdis, 51},
		// One UDIS disambiguator: 3 bits + 80.
		{"[01(1:c1s2)]", udis, 83},
		// Two minis on the path, one canonical.
		{"[1(0:⊥)(1:s2)]", sdis, 3 + 48},
	}
	for _, tt := range tests {
		p := MustParsePath(tt.path)
		if got := p.Bits(tt.cost); got != tt.want {
			t.Errorf("%s.Bits = %d, want %d", tt.path, got, tt.want)
		}
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	paths := []string{
		"[(1:s1)]",
		"[10(0:s25)]",
		"[10(0:s3)(1:s4)]",
		"[1110(0:c3s1)]",
		"[(0:⊥)]",
		"[0101010101(1:c4294967295s281474976710655)]",
	}
	for _, s := range paths {
		p := MustParsePath(s)
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %s: %v", s, err)
		}
		var q Path
		if err := q.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %s: %v", s, err)
		}
		if !p.Equal(q) {
			t.Errorf("round trip %s -> %s", p, q)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	p := MustParsePath("[10(0:c9s9)]")
	data := p.AppendBinary(nil)
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodePath(data[:cut]); err == nil && cut < len(data) {
			// Some prefixes decode as a shorter valid path only if the length
			// varint says so; with len 3 elements they cannot.
			t.Errorf("DecodePath of %d-byte prefix succeeded", cut)
		}
	}
	if _, _, err := DecodePath([]byte{1, 7}); err == nil {
		t.Error("invalid element form decoded")
	}
	var q Path
	if err := q.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Length varint larger than buffer.
	if _, _, err := DecodePath([]byte{200}); err == nil {
		t.Error("truncated length accepted")
	}
}
