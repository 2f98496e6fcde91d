package core

import (
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

func newDoc(t *testing.T, site ident.SiteID, opts ...func(*Config)) *Document {
	t.Helper()
	cfg := Config{Site: site, Strategy: Naive{}}
	for _, o := range opts {
		o(&cfg)
	}
	d, err := NewDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func withUDIS(c *Config)     { c.Mode = ident.UDIS }
func withBalanced(c *Config) { c.Strategy = Balanced{} }

func docString(d *Document) string { return strings.Join(d.Content(), "") }

// buildABCDEF appends the paper's running example document atom by atom.
func buildABCDEF(t *testing.T, d *Document) []Op {
	t.Helper()
	var ops []Op
	for i, atom := range []string{"a", "b", "c", "d", "e", "f"} {
		op, err := d.InsertAt(i, atom)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if got := docString(d); got != "abcdef" {
		t.Fatalf("document = %q, want abcdef", got)
	}
	return ops
}

// TestFigure3ConcurrentInserts replays the scenario of Figure 3: two sites
// concurrently insert W and Y between c and d; after exchanging operations
// both replicas converge, with the concurrent atoms ordered by
// disambiguator (site order under SDIS).
func TestFigure3ConcurrentInserts(t *testing.T) {
	siteA := newDoc(t, 7) // will hold W; site 7 < site 9 so W sorts first
	siteB := newDoc(t, 9)
	ops := buildABCDEF(t, siteA)
	for _, op := range ops {
		if err := siteB.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent edits: neither site has seen the other's insert.
	opW, err := siteA.InsertAt(3, "W")
	if err != nil {
		t.Fatal(err)
	}
	opY, err := siteB.InsertAt(3, "Y")
	if err != nil {
		t.Fatal(err)
	}
	// Exchange.
	if err := siteA.Apply(opY); err != nil {
		t.Fatal(err)
	}
	if err := siteB.Apply(opW); err != nil {
		t.Fatal(err)
	}
	wantDoc := "abcWYdef"
	if got := docString(siteA); got != wantDoc {
		t.Errorf("site A = %q, want %q", got, wantDoc)
	}
	if got := docString(siteB); got != wantDoc {
		t.Errorf("site B = %q, want %q", got, wantDoc)
	}
	// The concurrent identifiers are mini-siblings: same node (identical
	// structural prefix), different disambiguators.
	w, y := opW.ID.AppendPath(nil), opY.ID.AppendPath(nil)
	if !w[:len(w)-1].Equal(y[:len(y)-1]) || w.Last().Bit != y.Last().Bit {
		t.Errorf("W %v and Y %v are not mini-siblings", opW.ID, opY.ID)
	}
	if w.Last().Dis == y.Last().Dis {
		t.Errorf("mini-siblings share a disambiguator")
	}
}

// TestFigure4InsertBetweenMiniSiblings continues into Figure 4: inserting X
// between mini-siblings W and Y must create a child of mini-node W
// (Algorithm 1, rule in line 6).
func TestFigure4InsertBetweenMiniSiblings(t *testing.T) {
	siteA := newDoc(t, 7)
	siteB := newDoc(t, 9)
	for _, op := range buildABCDEF(t, siteA) {
		if err := siteB.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	opW, _ := siteA.InsertAt(3, "W")
	opY, _ := siteB.InsertAt(3, "Y")
	if err := siteA.Apply(opY); err != nil {
		t.Fatal(err)
	}
	if err := siteB.Apply(opW); err != nil {
		t.Fatal(err)
	}
	opX, err := siteA.InsertAt(4, "X") // between W and Y
	if err != nil {
		t.Fatal(err)
	}
	if err := siteB.Apply(opX); err != nil {
		t.Fatal(err)
	}
	want := "abcWXYdef"
	if got := docString(siteA); got != want {
		t.Errorf("site A = %q, want %q", got, want)
	}
	if got := docString(siteB); got != want {
		t.Errorf("site B = %q, want %q", got, want)
	}
	// X hangs off mini-node W: its identifier extends W's by one element.
	x := opX.ID.AppendPath(nil)
	if !x[:len(x)-1].Equal(opW.ID.AppendPath(nil)) {
		t.Errorf("X %v is not a child of mini-node W %v", opX.ID, opW.ID)
	}
	if x.Last() != ident.M(1, x.Last().Dis) {
		t.Errorf("X %v is not a right child", opX.ID)
	}
}

// TestFigure5BalancedGrowth replays Section 4.1's example exactly: on the
// Figure 2 tree (complete, three levels), a balanced append of atom g grows
// the tree by ⌈log2(h)⌉+1 = 3 levels, yielding the paper's identifier
// [1110(0:d)], and subsequent appends fill the reserved empty slots instead
// of deepening the tree.
func TestFigure5BalancedGrowth(t *testing.T) {
	d := newDoc(t, 1, withBalanced)
	// The Figure 2 document in its canonical heap layout (see doctree tests).
	for _, fix := range []struct{ id, atom string }{
		{"[0(0:s2)]", "a"}, {"[(0:s2)]", "b"}, {"[0(1:s2)]", "c"},
		{"[1(0:s2)]", "d"}, {"[(1:s2)]", "e"}, {"[1(1:s2)]", "f"},
	} {
		op := Op{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath(fix.id)), Atom: fix.atom, Site: 2, Seq: 1}
		if err := d.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	h := d.Stats().Height // 2: the complete three-level tree
	opG, err := d.InsertAt(6, "g")
	if err != nil {
		t.Fatal(err)
	}
	if want := "[1110(0:s1)]"; opG.ID.String() != want {
		t.Errorf("g's identifier = %v, want %v (the paper's [1110(0:d)])", opG.ID, want)
	}
	k := growLevels(h)
	if got := opG.ID.Len(); got != h+k {
		t.Errorf("g's identifier %v has depth %d, want h+k = %d", opG.ID, got, h+k)
	}
	// Subsequent appends consume the grown subtree's empty slots ("the
	// following atoms would consecutively use the PosIDs for the empty nodes
	// in the sub-tree") and stay within the grown height.
	maxDepth := 0
	for i, atom := range []string{"h", "i", "j", "k"} {
		op, err := d.InsertAt(7+i, atom)
		if err != nil {
			t.Fatal(err)
		}
		if op.ID.Len() > maxDepth {
			maxDepth = op.ID.Len()
		}
	}
	if maxDepth > h+k {
		t.Errorf("follow-up appends deepened the tree to %d, want <= %d", maxDepth, h+k)
	}
	if got := docString(d); got != "abcdefghijk" {
		t.Errorf("document = %q", got)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveAppendDegenerates documents the unbalanced behaviour the paper's
// Section 4.1 fixes: naive appends grow one level per atom.
func TestNaiveAppendDegenerates(t *testing.T) {
	d := newDoc(t, 1) // Naive
	var last Op
	for i := 0; i < 16; i++ {
		var err error
		last, err = d.InsertAt(i, "x")
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := last.ID.Len(); got != 16 {
		t.Errorf("16th naive append has depth %d, want 16", got)
	}

	b := newDoc(t, 1, withBalanced)
	for i := 0; i < 16; i++ {
		var err error
		last, err = b.InsertAt(i, "x")
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().Height; got >= 16 {
		t.Errorf("balanced append reached height %d, want < 16", got)
	}
}
