package doctree_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// TestSiteLimitIsErrFull lowers the site table's limit: an operation that
// would bring one site too many fails with ErrFull before it changes the
// content or the table — a local insert by a site the table lacks, and a
// remote identifier naming two sites it lacks where there is room for
// one — and the tree stays sound. An identifier naming one new site at two
// levels takes one entry, and fits.
func TestSiteLimitIsErrFull(t *testing.T) {
	w, err := core.NewDocument(core.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewDocument(core.Config{Site: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []string{"a", "b", "c"} {
		op, err := w.InsertAt(i, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	tr := r.Tree()
	sites, content := tr.Sites(), tr.Content()
	unchanged := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, doctree.ErrFull) {
			t.Errorf("%s past the site limit: %v, want ErrFull", what, err)
		}
		if err := tr.Check(); err != nil {
			t.Errorf("after the %s: %v", what, err)
		}
		if !slices.Equal(tr.Sites(), sites) || !slices.Equal(tr.Content(), content) {
			t.Errorf("after the %s the table is %v and the content %q, want %v and %q", what, tr.Sites(), tr.Content(), sites, content)
		}
	}

	tr.SetSiteLimit(len(sites)) // site 0 and the writer's: full
	_, err = r.InsertAt(1, "x")
	unchanged("local insert by site 9", err)

	tr.SetSiteLimit(len(sites) + 1)
	b, err := tr.IDAt(1)
	if err != nil {
		t.Fatal(err)
	}
	two := b.Child(ident.M(0, ident.Dis{Site: 20})).Child(ident.M(1, ident.Dis{Site: 21}))
	unchanged("remote insert naming sites 20 and 21", tr.InsertID(two, "y"))

	one := b.Child(ident.M(0, ident.Dis{Site: 20})).Child(ident.M(1, ident.Dis{Site: 20}))
	if err := tr.InsertID(one, "y"); err != nil {
		t.Fatalf("remote insert naming site 20 twice, with room for one: %v", err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Sites(), append(sites, 20); !slices.Equal(got, want) {
		t.Errorf("site table %v, want %v", got, want)
	}
}

// TestDecodeRefusesSiteTablePastIndex: a snapshot whose site table holds
// more entries than a 16-bit index names beside site 0 is refused with
// ErrFull before anything is read or sized by it.
func TestDecodeRefusesSiteTablePastIndex(t *testing.T) {
	for _, n := range []string{"\x80\x80\x04", "\xff\xff\xff\xff\x0f"} { // 65,536 and 2³²−1 entries
		if _, err := doctree.DecodeSnapshot([]byte("TDC2" + n)); !errors.Is(err, doctree.ErrFull) {
			t.Errorf("a table of %x entries: %v, want ErrFull", n, err)
		}
	}
}
