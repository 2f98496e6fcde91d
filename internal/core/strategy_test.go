package core

import (
	"math/rand"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

func id(t *testing.T, s string) ident.Path {
	t.Helper()
	return ident.MustParsePath(s)
}

// TestNaiveIDRules exercises Algorithm 1 case by case on the Figure 2/3/4
// identifiers, checking both the chosen slot and strict betweenness.
func TestNaiveIDRules(t *testing.T) {
	d := ident.Dis{Site: 9}
	tests := []struct {
		name string
		p, f string // "" = document boundary
		want string // expected identifier
	}{
		// Empty document: the seed position.
		{"empty doc", "", "", "[(1:s9)]"},
		// Document start: left child of f's node (rule 4 degenerate).
		{"doc start", "", "[(0:s2)]", "[0(0:s9)]"},
		// Document end: right child of p's node (rule 5/7 degenerate).
		{"doc end", "[1(1:s6)]", "", "[11(1:s9)]"},
		// Rule 4: p ancestor of f (f descends through p's node): f-left.
		// p = b at [0], f = c at [01]: c walks through b's node.
		{"rule4 ancestor", "[(0:s2)]", "[0(1:s3)]", "[01(0:s9)]"},
		// Rule 5: f ancestor of p: p's node-right.
		// p = a at [00], f = b at [0]: a sits in b's node's left subtree.
		{"rule5 descendant", "[0(0:s1)]", "[(0:s2)]", "[00(1:s9)]"},
		// Rule 6: mini-siblings (concurrent inserts, Figure 4): child of
		// mini p, not of the node (the node-right slot would overshoot the
		// sibling).
		{"rule6 minisiblings", "[10(0:s7)]", "[10(0:s9)]", "[10(0:s7)(1:s9)]"},
		// Rule 6 second clause: f descends through a later mini-sibling.
		{"rule6 through sibling", "[10(0:s7)]", "[10(0:s8)(0:s1)]", "[10(0:s7)(1:s9)]"},
		// Rule 7: unrelated neighbours (p in one subtree, f in another):
		// p's node-right.
		{"rule7 unrelated", "[0(1:s3)]", "[1(0:s4)]", "[01(1:s9)]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var p, f ident.Path
			if tt.p != "" {
				p = id(t, tt.p)
			}
			if tt.f != "" {
				f = id(t, tt.f)
			}
			got := naiveID(nil, p, f, d)
			if got.String() != tt.want {
				t.Errorf("naiveID(%s, %s) = %v, want %s", tt.p, tt.f, got, tt.want)
			}
			if !ident.Between(p, got, f) {
				t.Errorf("naiveID(%s, %s) = %v not strictly between", tt.p, tt.f, got)
			}
		})
	}
}

// TestNaiveIDBetweenProperty: for random adjacent pairs drawn from a
// growing random document, naiveID is always strictly between.
func TestNaiveIDBetweenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ids []ident.Path
	dis := func() ident.Dis { return ident.Dis{Site: ident.SiteID(1 + rng.Intn(5))} }
	for step := 0; step < 4000; step++ {
		var p, f ident.Path
		gap := rng.Intn(len(ids) + 1)
		if gap > 0 {
			p = ids[gap-1]
		}
		if gap < len(ids) {
			f = ids[gap]
		}
		got := naiveID(nil, p, f, dis())
		if !ident.Between(p, got, f) {
			t.Fatalf("step %d: naiveID(%v, %v) = %v not between", step, p, f, got)
		}
		// Insert in sorted position to keep the document ordered.
		ids = append(ids, nil)
		copy(ids[gap+1:], ids[gap:])
		ids[gap] = got
	}
}

func TestGrowShapes(t *testing.T) {
	d := ident.Dis{Site: 1}
	naive := ident.Path{ident.J(1), ident.J(1), ident.M(1, d)}
	if got := grow(naive, 1); !got.Equal(naive) {
		t.Errorf("k=1 must not grow: %v", got)
	}
	// k=3 on the Figure 5 shape: [11(1:d)] -> [1110(0:d)]. grow rewrites the
	// identifier where it lies, so it gets a copy.
	got := grow(naive.Clone(), 3)
	if got.String() != "[1110(0:s1)]" {
		t.Errorf("grow k=3 = %v, want [1110(0:s1)]", got)
	}
	if ident.Compare(naive, got) <= 0 {
		// The grown id replaces the naive one at the same slot: it must be
		// the smallest of the region, hence before the naive position.
		t.Errorf("grown id %v should sort before the naive id %v", got, naive)
	}
}

func TestGrowLevels(t *testing.T) {
	// growLevels(depth) = ⌈log2(depth+1)⌉ + 1 (the paper's h counts levels).
	for _, tt := range []struct{ h, want int }{
		{0, 1}, {1, 2}, {2, 3}, {3, 3}, {4, 4}, {7, 4}, {8, 5}, {100, 8},
	} {
		if got := growLevels(tt.h); got != tt.want {
			t.Errorf("growLevels(%d) = %d, want %d", tt.h, got, tt.want)
		}
	}
}

// TestBalancedFillsReservedInfix: after a growth, successive appends take
// the reserved slots in infix order (Figure 5's numbering).
func TestBalancedFillsReservedInfix(t *testing.T) {
	tr := doctree.New()
	// Figure 2 document.
	for _, fix := range []struct{ id, atom string }{
		{"[0(0:s2)]", "a"}, {"[(0:s2)]", "b"}, {"[0(1:s2)]", "c"},
		{"[1(0:s2)]", "d"}, {"[(1:s2)]", "e"}, {"[1(1:s2)]", "f"},
	} {
		if err := tr.InsertID(ident.MustParsePath(fix.id), fix.atom); err != nil {
			t.Fatal(err)
		}
	}
	strat := Balanced{}
	dis := ident.Dis{Site: 1}
	p := ident.MustParsePath("[1(1:s2)]") // f, the last atom
	var got []string
	for i := 0; i < 7; i++ {
		nid := strat.NewID(tr, nil, p, nil, dis)
		if err := tr.InsertID(nid, "x"); err != nil {
			t.Fatalf("append %d (%v): %v", i, nid, err)
		}
		got = append(got, nid.String())
		p = nid
	}
	// g takes the region's smallest id; the six reserved slots follow in
	// infix order; the 8th append (beyond the region) grows again.
	want := []string{
		"[1110(0:s1)]", // g: the paper's identifier
		"[111(0:s1)]",  // slot 1
		"[1110(1:s1)]", // slot 2
		"[11(1:s1)]",   // slot 3: the region root's own mini
		"[1111(0:s1)]", // slot 4
		"[111(1:s1)]",  // slot 5
		"[1111(1:s1)]", // slot 6
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("append %d = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedAppendDepthSublinear: the balancing heuristic reserves
// ~2h slots per growth of ⌈log2 h⌉+1 levels, which bounds append depth by
// roughly √(n·log n) — against the naive strategy's exactly-n. For 3000
// appends that is ~190 versus 3000.
func TestBalancedAppendDepthSublinear(t *testing.T) {
	d, err := NewDocument(Config{Site: 1, Strategy: Balanced{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := d.InsertAt(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if h := d.Stats().Height; h > 200 {
		t.Errorf("height after %d appends = %d, want <= 200 (≈√(n·log n))", n, h)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
