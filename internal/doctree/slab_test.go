package doctree

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/treedoc/treedoc/internal/ident"
)

// TestRecordLayout guards the record sizes the heap-per-atom numbers rest on
// (docs/ARCHITECTURE.md §10.2): node and mini records hold no Go pointer,
// which keeps their chunks out of the collector's scan, and every chunk —
// 64 nodes, 64 minis, 64 node stamps — fills a Go size class exactly. An
// atom block is its 64 ends and one buffer, the one pointer the collector
// scans per 64 atoms: 280 bytes, allocated four at a time, 1,120 bytes in
// the 1,152-byte size class (288 bytes a block).
func TestRecordLayout(t *testing.T) {
	// The size classes of 256 B and between 1 and 4 KiB (runtime/sizeclasses.go).
	classes := []uintptr{256, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096}
	block := unsafe.Sizeof([4]atomBlock{})
	if i, _ := slices.BinarySearch(classes, block); block != 4*280 || classes[i] != 1152 {
		t.Errorf("four atom blocks are %d bytes in the %d-byte size class, want 1,120 in the 1,152-byte one", block, classes[i])
	}
	for _, r := range []struct {
		name              string
		size, want, chunk uintptr
		ty                reflect.Type
	}{
		{"node", unsafe.Sizeof(node{}), 24, chunkLen, reflect.TypeOf(node{})},
		{"mini", unsafe.Sizeof(mini{}), 16, chunkLen, reflect.TypeOf(mini{})},
		{"stamp", unsafe.Sizeof(*Tree{}.stamps[0]) / chunkLen, 4, chunkLen, nil},
	} {
		if r.size != r.want {
			t.Errorf("%s record is %d bytes, want %d", r.name, r.size, r.want)
		}
		if c := r.chunk * r.size; !slices.Contains(classes, c) {
			t.Errorf("a chunk of %d %s records is %d bytes, not a size class", r.chunk, r.name, c)
		}
		if r.ty != nil {
			noPointers(t, r.name, r.ty)
		}
	}
}

// noPointers fails t for every pointer-kinded field reachable inline in ty.
func noPointers(t *testing.T, path string, ty reflect.Type) {
	switch ty.Kind() {
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			noPointers(t, path+"."+ty.Field(i).Name, ty.Field(i).Type)
		}
	case reflect.Array:
		noPointers(t, path+"[]", ty.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		t.Errorf("%s is pointer-kinded (%s)", path, ty.Kind())
	}
}

// TestMiniKeepsWholeDisambiguator: a mini record and a solo hold a 32-bit
// counter and a 16-bit index into the tree's site table, which holds the
// whole 48-bit site; the extremes, sites 1 and 2⁴⁸−1, must come back intact
// and stay distinct, in the tree and in one decoded from its snapshot, whose
// table the snapshot's installs. The sites were met from the highest down,
// so the table's indices run against the sites' order. A 49-bit site never
// reaches the tree: DecodePacked and Path.Validate refuse it (internal/ident).
func TestMiniKeepsWholeDisambiguator(t *testing.T) {
	tr := New()
	ids := []ident.Path{ // in the order inserted; document order is the reverse
		{ident.M(1, ident.Dis{Counter: 1<<32 - 1, Site: ident.MaxSiteID})},
		{ident.M(1, ident.Dis{Counter: 1<<32 - 1, Site: ident.MaxSiteID &^ (1 << 32)})},
		{ident.M(1, ident.Dis{Site: 1 << 32})},
		{ident.M(1, ident.Dis{Site: 1})},
		{ident.M(0, ident.Dis{Site: ident.MaxSiteID})}, // solos: alone in their nodes
		{ident.J(0), ident.M(0, ident.Dis{Site: 1})},
	}
	for i, id := range ids {
		if err := tr.InsertID(id, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.node(tr.node(rootH).kids[0]).solo() {
		t.Fatalf("[(0:s%d)] is no solo", ident.MaxSiteID)
	}
	back, err := DecodeSnapshot(tr.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{tr, back} {
		checkTree(t, tr)
		for i := range ids {
			got, err := tr.IDAt(i)
			if want := ids[len(ids)-1-i]; err != nil || !got.Equal(want) {
				t.Errorf("IDAt(%d) = %v, %v; want %v", i, got, err, want)
			}
		}
	}
	if want := []ident.SiteID{0, ident.MaxSiteID, ident.MaxSiteID &^ (1 << 32), 1 << 32, 1}; !slices.Equal(tr.sites, want) {
		t.Errorf("site table %v, want %v in the order met", tr.sites, want)
	}
	if want := []ident.SiteID{0, 1, 1 << 32, ident.MaxSiteID &^ (1 << 32), ident.MaxSiteID}; !slices.Equal(back.sites, want) {
		t.Errorf("decoded site table %v, want the snapshot's ascending %v", back.sites, want)
	}
}

// freeSets walks both free chains and returns the handles on them, checking
// that chain lengths match the slabs' counters.
func freeSets(t *testing.T, tr *Tree) (nodes, minis map[uint32]bool) {
	t.Helper()
	nodes, minis = map[uint32]bool{}, map[uint32]bool{}
	for h := tr.nodes.free; h != 0; h = uint32(tr.node(nodeH(h)).parent) {
		if nodes[h] {
			t.Fatalf("node free chain loops at %d", h)
		}
		nodes[h] = true
	}
	for h := tr.minis.free; h != 0; h = uint32(tr.mini(miniH(h)).next) {
		if minis[h] {
			t.Fatalf("mini free chain loops at %d", h)
		}
		minis[h] = true
	}
	if len(nodes) != int(tr.nodes.nfree) || len(minis) != int(tr.minis.nfree) {
		t.Fatalf("free chains hold %d nodes, %d minis; counters say %d, %d",
			len(nodes), len(minis), tr.nodes.nfree, tr.minis.nfree)
	}
	return nodes, minis
}

// checkNoDangling sweeps every handle reachable from the root — child
// slots, mini chains, parent backlinks, the walk cache — and the keys of
// the mini-child table, and fails if one is on a free list or beyond its
// slab.
func checkNoDangling(t *testing.T, tr *Tree) {
	t.Helper()
	freeN, freeM := freeSets(t, tr)
	node := func(h nodeH, what string) {
		if h != 0 && (uint32(h) > tr.nodes.n || freeN[uint32(h)]) {
			t.Fatalf("%s: node handle %d is free or out of range", what, h)
		}
	}
	mini := func(h miniH, what string) {
		if h != 0 && (uint32(h) > tr.minis.n || freeM[uint32(h)]) {
			t.Fatalf("%s: mini handle %d is free or out of range", what, h)
		}
	}
	node(tr.ck.node, "walk cache")
	if tr.ck.mini != soloMini {
		mini(tr.ck.mini, "walk cache")
	}
	for mh := range tr.mkids {
		mini(mh, "mini-child entry")
	}
	var walk func(h nodeH)
	walk = func(h nodeH) {
		if h == 0 {
			return
		}
		node(h, "child slot")
		n := tr.node(h)
		node(n.parent, "parent backlink")
		walk(n.kids[0])
		walk(n.kids[1])
		for mh := n.minis(); mh != 0; mh = tr.mini(mh).next {
			mini(mh, "mini chain")
			kids := tr.kids(slot{h, mh})
			walk(kids[0])
			walk(kids[1])
		}
	}
	walk(rootH)
}

// TestFlattenSubtreeRecyclesRecords flattens a cold subtree holding half the
// tree: its records must land on the free lists, all of them, and the next
// inserts must take them from there instead of growing the slabs.
func TestFlattenSubtreeRecyclesRecords(t *testing.T) {
	tr := New()
	// Two chains of 200 atoms, one under each child of the root; a third of
	// the right one is then tombstoned.
	for side := uint8(0); side <= 1; side++ {
		id := ident.Path{ident.M(side, ident.Dis{Site: 1})}
		for i := 0; i < 200; i++ {
			if err := tr.InsertID(id, fmt.Sprint(i)); err != nil {
				t.Fatal(err)
			}
			if side == 1 && i%3 == 0 {
				if _, err := tr.DeleteID(id, false); err != nil {
					t.Fatal(err)
				}
			}
			id = id.Child(ident.M(uint8(i%2), ident.Dis{Site: 1}))
		}
	}
	checkTree(t, tr)
	// The region's root node stays, and the chain's last mini is a solo,
	// with no record: 199 nodes and as many mini records go.
	wantNodes, wantMinis := uint32(199), uint32(199)
	highN, highM := tr.nodes.n, tr.minis.n
	before := tr.Content()

	if err := tr.Flatten(ident.Path{ident.J(1)}); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	checkNoDangling(t, tr)
	if tr.nodes.nfree != wantNodes || tr.minis.nfree != wantMinis {
		t.Errorf("free lists hold %d nodes and %d minis after the flatten, want %d and %d",
			tr.nodes.nfree, tr.minis.nfree, wantNodes, wantMinis)
	}
	if got := tr.Content(); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Error("flatten changed the content")
	}

	// New inserts under the left chain reuse the freed records.
	nodesBefore := tr.Stats(ident.PaperCost(ident.SDIS)).Nodes
	for i := 0; i < 150; i++ {
		id := ident.Path{ident.J(0), ident.J(0), ident.M(1, ident.Dis{Site: ident.SiteID(10 + i)})}
		if err := tr.InsertID(id, "x"); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			checkNoDangling(t, tr)
		}
	}
	for i := 0; i < 40; i++ {
		if err := tr.InsertID(ident.Path{ident.J(0), ident.J(1), ident.J(uint8(i % 2)), ident.M(uint8(i/2%2), ident.Dis{Site: ident.SiteID(500 + i)})}, "y"); err != nil {
			t.Fatal(err)
		}
	}
	checkTree(t, tr)
	if got := tr.Stats(ident.PaperCost(ident.SDIS)).Nodes; got <= nodesBefore {
		t.Errorf("Stats.Nodes did not grow: %d -> %d", nodesBefore, got)
	}
	if tr.nodes.n != highN || tr.minis.n != highM {
		t.Errorf("slabs grew to %d nodes, %d minis (were %d, %d) with %d and %d records free",
			tr.nodes.n, tr.minis.n, highN, highM, wantNodes, wantMinis)
	}
	if tr.nodes.nfree >= wantNodes || tr.minis.nfree >= wantMinis {
		t.Errorf("free lists untouched by the inserts: %d nodes, %d minis", tr.nodes.nfree, tr.minis.nfree)
	}

	// A whole-document flatten drops every chunk but the root's.
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if len(tr.nodes.chunks) != 1 || len(tr.minis.chunks) != 0 || tr.nodes.n != 1 {
		t.Errorf("whole-document flatten left %d node chunks, %d mini chunks, %d node handles",
			len(tr.nodes.chunks), len(tr.minis.chunks), tr.nodes.n)
	}
}

// TestFullIsAnError shrinks the record limit: every path that allocates
// must refuse with ErrFull before touching the tree, never wrap a handle.
func TestFullIsAnError(t *testing.T) {
	tr := New()
	tr.limit = 8
	id := ident.Path{ident.M(1, ident.Dis{Site: 1})}
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = tr.InsertID(id, "a")
		id = id.Child(ident.M(1, ident.Dis{Site: 1}))
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("insert past the limit: %v, want ErrFull", err)
	}
	checkTree(t, tr)
	if tr.nodes.used() > tr.limit || tr.minis.used() > tr.limit {
		t.Errorf("slabs hold %d nodes, %d minis past limit %d", tr.nodes.used(), tr.minis.used(), tr.limit)
	}
	if err := tr.Reserve(ident.Path{ident.J(0)}, 4); !errors.Is(err, ErrFull) {
		t.Errorf("reserve past the limit: %v, want ErrFull", err)
	}
	if err := tr.Reserve(ident.Path{ident.J(0)}, 40); !errors.Is(err, ErrFull) {
		t.Errorf("reserve of 2^40 nodes: %v, want ErrFull", err)
	}
	live := tr.Len()
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	tr.limit = uint32(live) - 1
	if _, err := tr.IDAt(0); !errors.Is(err, ErrFull) {
		t.Errorf("explode past the limit: %v, want ErrFull", err)
	}
	checkTree(t, tr)
	if tr.Len() != live {
		t.Errorf("refused explode changed Len to %d", tr.Len())
	}

	// A snapshot: a root with two children, one holding two minis, the other
	// a flat region of three atoms.
	src := New()
	for i, id := range []string{"[(0:s1)]", "[(0:s2)]", "[1(1:s1)]", "[11(1:s1)]", "[111(1:s1)]"} {
		if err := src.InsertID(ident.MustParsePath(id), string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flatten(ident.Path{ident.J(1)}); err != nil {
		t.Fatal(err)
	}
	stream := src.AppendSnapshot(nil)
	if got, err := decodeSnapshot(stream, 5); err != nil || got.Len() != 5 {
		t.Fatalf("import within the limit: %v", err)
	}
	for _, limit := range []uint32{1, 2, 4} { // no room for a child, for both children, for the atoms
		if _, err := decodeSnapshot(stream, limit); !errors.Is(err, ErrFull) {
			t.Errorf("import with limit %d: %v, want ErrFull", limit, err)
		}
	}

	// A run of three tombs is cut where a walk stops at a member.
	chain := []ident.Path{ident.MustParsePath("[(1:s1)]"), ident.MustParsePath("[1(1:s1)]"), ident.MustParsePath("[11(1:s1)]")}
	run := New()
	for _, id := range chain {
		if err := run.InsertID(id, "r"); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range chain {
		if _, err := run.DeleteID(id, false); err != nil {
			t.Fatal(err)
		}
	}
	run.limit = run.nodes.used()
	if _, err := run.DeleteID(chain[1], false); !errors.Is(err, ErrFull) {
		t.Errorf("delete again at a run's member past the limit: %v, want ErrFull", err)
	}
	if err := run.InsertID(ident.MustParsePath("[1(1:s2)]"), "x"); !errors.Is(err, ErrFull) {
		t.Errorf("insert beside a run's member past the limit: %v, want ErrFull", err)
	}
	if err := run.Flatten(ident.MustParsePath("[11]")); !errors.Is(err, ErrFull) {
		t.Errorf("flatten at a run's member past the limit: %v, want ErrFull", err)
	}
	checkTree(t, run)
	if run.nodes.used() != 2 || !run.node(run.node(rootH).kids[1]).run() {
		t.Errorf("refused walks left %d records", run.nodes.used())
	}
}

// TestReserveCountsStayWithinTheLimit: a reservation holds no records, so
// the limit bounds the empty nodes it stands for instead — repeated
// reservations cannot wrap the 32-bit empty-slot counters.
func TestReserveCountsStayWithinTheLimit(t *testing.T) {
	tr := New()
	tr.limit = 1 << 10
	var err error
	for bit := uint8(0); bit <= 1 && err == nil; bit++ {
		for i := 0; i < 8 && err == nil; i++ {
			err = tr.Reserve(ident.Path{ident.J(bit), ident.J(uint8(i & 1)), ident.J(uint8(i >> 1 & 1)), ident.J(uint8(i >> 2))}, 8)
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("reservations past the limit: %v, want ErrFull", err)
	}
	checkTree(t, tr)
	if e := tr.reserved; e > tr.limit {
		t.Errorf("%d empty nodes counted past the limit of %d records", e, tr.limit)
	}
}

// TestFlatRegionIsARunOfHandles flattens a subtree whose text the loader
// writes into three blocks of a fresh atom store; the atoms outside the
// region then load into the third, the open block, beside the region's
// last three. It flattens the region again, and takes it through a
// snapshot, an insert that explodes it and a whole-document flatten. The
// atoms are of several bytes and lengths throughout.
func TestFlatRegionIsARunOfHandles(t *testing.T) {
	tr := New()
	var want []string
	chain := func(bit uint8, k int) { // k atoms, each the right child's mini of the last
		id := ident.Path{ident.M(bit, ident.Dis{Counter: 1, Site: 1})}
		for i := 0; i < k; i++ {
			a := fmt.Sprintf("%c%d·", 'a'+bit, i*i)
			if err := tr.InsertID(id, a); err != nil {
				t.Fatal(err)
			}
			want = append(want, a)
			id = id.Child(ident.M(1, ident.Dis{Counter: 1, Site: 1}))
		}
	}
	chain(0, 130) // the region
	chain(1, 20)  // the rest
	step := func(what string) {
		t.Helper()
		checkTree(t, tr)
		if got := tr.Content(); !slices.Equal(got, want) {
			t.Fatalf("%s: content %q, want %q", what, got, want)
		}
	}
	step("insert")
	if err := tr.Flatten(ident.Path{ident.J(0)}); err != nil {
		t.Fatal(err)
	}
	step("flatten")
	if r := tr.node(tr.node(rootH).kids[0]); !r.flat() || r.u != 1 || r.live != 130 || tr.atoms.n != 150 {
		t.Fatalf("region: flat %v, handles from %d, %d atoms, %d handles in all; want a run of 130 from 1, and 150", r.flat(), r.u, r.live, tr.atoms.n)
	}
	if err := tr.Flatten(ident.Path{ident.J(0)}); err != nil { // a new run, the old one dropped
		t.Fatal(err)
	}
	step("flatten again")
	data := tr.AppendSnapshot(nil)
	var err error
	if tr, err = DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	}
	step("decode")
	if again := tr.AppendSnapshot(nil); !bytes.Equal(again, data) {
		t.Fatal("the decoded tree encodes to other bytes")
	}
	// A site's mini beside the canonical solo of the region root's left child.
	if err := tr.InsertID(ident.Path{ident.J(0), ident.M(0, ident.Dis{Counter: 1, Site: 9})}, "inserted"); err != nil {
		t.Fatal(err)
	}
	if tr.node(tr.node(rootH).kids[0]).flat() {
		t.Fatal("the insert did not explode the region")
	}
	i := slices.Index(tr.Content(), "inserted")
	if i < 0 {
		t.Fatal("the inserted atom is missing")
	}
	want = slices.Insert(want, i, "inserted")
	step("explode")
	if err := tr.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	step("flatten all")
}

// TestReflattenKeepsTheStoreBounded flattens a region, and a region inside
// it, over and over while edits and deletes land beside it and another flat
// region stays untouched, as a cold-subtree policy does. Each flatten loads
// the region at fresh handles; had it freed the old ones into the same
// store, which only inserts take back, the store would grow by the region at
// every round. It moves every atom to a fresh store instead, the other
// region's as a run, so after it every handle is held.
func TestReflattenKeepsTheStoreBounded(t *testing.T) {
	tr := New()
	chain := func(id ident.Path, k int, site ident.SiteID) { // k atoms on a chain of nodes down the right
		for i := 0; i < k; i++ {
			if err := tr.InsertID(append(id.Clone(), ident.M(0, ident.Dis{Counter: 1, Site: site})), fmt.Sprintf("%d·", i*i)); err != nil {
				t.Fatal(err)
			}
			id = append(id, ident.J(1))
		}
	}
	chain(ident.Path{ident.J(0)}, 300, 1)
	other := ident.Path{ident.J(1), ident.J(1), ident.J(1)} // below the edits
	chain(other, 70, 4)
	if err := tr.Flatten(other); err != nil {
		t.Fatal(err)
	}
	solo := ident.Path{ident.J(1), ident.J(1), ident.J(0)}
	for r := 1; r <= 20; r++ {
		// A mini beside the last round's in one node, and a solo in a node
		// of its own.
		solo = append(solo, ident.J(1))
		for _, p := range []ident.Path{
			{ident.J(1), ident.M(0, ident.Dis{Counter: uint32(r), Site: 2})},
			append(solo.Clone(), ident.M(0, ident.Dis{Site: 3})),
		} {
			if err := tr.InsertID(p, fmt.Sprintf("r%d", r)); err != nil {
				t.Fatal(err)
			}
		}
		if r%3 == 0 {
			if _, err := tr.DeleteID(ident.Path{ident.J(1), ident.M(0, ident.Dis{Counter: uint32(r), Site: 2})}, false); err != nil {
				t.Fatal(err)
			}
		}
		region := ident.Path{ident.J(0), ident.J(1)}[:1+r%2] // the region's right part, or all of it
		want := tr.Content()
		if err := tr.Flatten(region); err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr)
		if got := tr.Content(); !slices.Equal(got, want) {
			t.Fatalf("round %d: flatten of %v changed the content", r, region)
		}
		if len(tr.atoms.free) != 0 || int(tr.atoms.n) != tr.Len() {
			t.Fatalf("round %d: %d handles handed out, %d of them free, for %d atoms", r, tr.atoms.n, len(tr.atoms.free), tr.Len())
		}
	}
	if !tr.routeNode(other).flat() {
		t.Error("the edits exploded the other region")
	}
}
