package doctree_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// replica is a tree under test and the reference fed the steps it saw.
type replica struct {
	name string
	tr   *doctree.Tree
	ref  *ref
}

// script is one fuzz input decoded into steps: a writer, site 1, types
// through core's balanced strategy and deletes by index; a reader applies
// those operations as remote ones; sites 2–4 insert concurrently at both;
// a joiner decoded from a snapshot of either applies what follows. After
// every step each replica passes Check and answers as its reference does.
type script struct {
	t       *testing.T
	data    []byte
	mode    ident.Mode
	reps    []*replica   // writer, reader, joiner (once a snapshot made one)
	seen    []ident.Path // every identifier inserted or deleted
	counter uint32
	step    int
	met     map[string]int // the forms the script met
}

func (s *script) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%v step %d: %s", s.mode, s.step, fmt.Sprintf(format, args...))
}

// next takes a choice among n from the input: 0 once it is spent.
func (s *script) next(n int) int {
	if len(s.data) == 0 || n <= 1 {
		return 0
	}
	b := int(s.data[0])
	s.data = s.data[1:]
	return b % n
}

// dis returns a fresh disambiguator of site: a bare site under SDIS.
func (s *script) dis(site ident.SiteID) ident.Dis {
	if s.counter++; s.mode == ident.UDIS {
		return ident.Dis{Counter: s.counter, Site: site}
	}
	return ident.Dis{Site: site}
}

// pick returns an identifier the writer holds live, or with dead one
// inserted or deleted before that it does not; nil if there is none.
func (s *script) pick(dead bool) ident.Path {
	ids, _ := live(s.reps[0].ref.root, nil)
	if dead {
		ids = slices.DeleteFunc(slices.Clone(s.seen), func(id ident.Path) bool { return slices.ContainsFunc(ids, id.Equal) })
	}
	if len(ids) == 0 {
		return nil
	}
	return ids[s.next(len(ids))]
}

// note adds id to the identifiers the script has met.
func (s *script) note(id ident.Path) {
	if !slices.ContainsFunc(s.seen, id.Equal) {
		s.seen = append(s.seen, id)
	}
}

// insert applies the remote insert of atom at id to reps.
func (s *script) insert(reps []*replica, id ident.Path, atom string) {
	s.t.Helper()
	if reps[0].ref.recreates(id) {
		s.met["an insert re-creating a placeholder mini in an existing node"]++
	}
	for _, r := range reps {
		err := r.tr.InsertID(id, atom)
		if ok := r.ref.insert(id, atom); ok != (err == nil) {
			s.fatalf("%s: insert %v: %v; the reference inserts: %v", r.name, id, err, ok)
		}
	}
	s.note(id)
}

// remove applies a remote delete of id to every replica, or with local the
// writer's delete of atom i, whose identifier id is.
func (s *script) remove(id ident.Path, local bool, i int) {
	s.t.Helper()
	prune, dead := s.mode == ident.UDIS, s.reps[0].ref.stats(ident.PaperCost(s.mode)).DeadMinis
	for k, r := range s.reps {
		found, err := false, error(nil)
		if k == 0 && local {
			var got ident.Path
			got, err = r.tr.DeleteAtIndex(i, prune, nil)
			found = got.Equal(id)
		} else {
			found, err = r.tr.DeleteID(id, prune)
		}
		if want := r.ref.delete(id); err != nil || found != want {
			s.fatalf("%s: delete %v: found %v (%v), the reference %v", r.name, id, found, err, want)
		}
	}
	if prune && s.reps[0].ref.stats(ident.PaperCost(s.mode)).DeadMinis < dead {
		s.met["a UDIS prune through a placeholder mini"]++
	}
	s.note(id)
}

// local types k atoms from gap i on the writer as core's InsertAt does: the
// next gap's left neighbour is the atom just inserted, where it landed.
// The neighbour lookups explode the flat regions on their routes, as a
// walk to an atom by index does.
func (s *script) local(i, k int, d ident.Dis) {
	s.t.Helper()
	w := s.reps[0]
	for _, j := range []int{i - 1, i} {
		if ids, _ := live(w.ref.root, nil); j >= 0 && j < len(ids) {
			w.ref.walk(ids[j], false)
		}
	}
	var p, f ident.Path
	var at doctree.Gap
	var err error
	switch n := w.tr.Len(); { // the neighbours and where they lie
	case i > 0 && i < n:
		p, f, at, err = w.tr.AppendNeighborIDs(nil, nil, i)
	case i > 0:
		p, at.P, err = w.tr.AppendIDAt(nil, i-1)
	case i < n:
		f, at.F, err = w.tr.AppendIDAt(nil, i)
	}
	if err != nil {
		s.fatalf("gap %d: %v", i, err)
	}
	for j := 0; j < k; j++ {
		atom := fmt.Sprint("l", s.step, ".", j)
		id, slot := s.mint(p, f, at, d, atom)
		s.insert(s.reps[1:], id, atom)
		p, at.P = id, slot
	}
}

// mint inserts atom between p and f, which lie at at, on the writer as
// core's allocate does: the balanced strategy mints an identifier, and a
// used one becomes the lower bound of the next try. The strategy's slot
// must be the reference's first free one; with none, a naive identifier
// the strategy made deeper grew the tree (Section 4.1), which the
// reference grows too.
func (s *script) mint(p, f ident.Path, at doctree.Gap, d ident.Dis, atom string) (ident.Path, doctree.Slot) {
	s.t.Helper()
	w := s.reps[0]
	for {
		want, records := w.ref.freeSlots(d)[p.String()], w.tr.Records()
		naive, _ := core.Naive{}.NewID(w.tr, nil, p, f, at, d)
		id, from := core.Balanced{}.NewID(w.tr, nil, p, f, at, d)
		switch region := naive.StripLastDis(); {
		case want != nil && !id.Equal(want):
			s.fatalf("gap (%v, %v): the strategy mints %v, the reference's free slot is %v", p, f, id, want)
		case want != nil && w.tr.Records() > records:
			s.met["a free slot in a reservation no walk had built"]++
		case want == nil && !id.Equal(naive) && !id.HasPrefix(region):
			s.fatalf("gap (%v, %v): the strategy mints %v, neither free nor below %v", p, f, id, naive)
		case want == nil && !id.Equal(naive):
			w.ref.reserve(region, len(id)-len(region)+1)
		}
		used, collides := w.tr.ExistsFrom(from, id)
		if collides != w.ref.exists(id) {
			s.fatalf("ExistsFrom(%v) = %v, the reference %v", id, collides, !collides)
		}
		if !collides {
			slot, err := w.tr.InsertFrom(from, id, atom)
			if !w.ref.insert(id, atom) || err != nil {
				s.fatalf("local insert %v: %v", id, err)
			}
			return id, slot
		}
		if used.AboveRun() {
			s.met["a scan from a run's tomb"]++
		}
		p, at.P = id, used
	}
}

// remote inserts an identifier of site 2, 3 or 4 beside or below an atom
// the writer holds live or dead: a child of its mini, a sibling at its
// node, a chain of plain elements below its mini, a node below its node,
// or a grandchild whose parent mini is new (a placeholder). With three,
// each site inserts at the same place, from the highest down: sites the
// trees have not met take indices against their order, and a chain that
// orders its minis by index instead of by site reads them backwards.
func (s *script) remote(three bool) {
	s.t.Helper()
	base := s.pick(s.next(2) == 0)
	if base == nil {
		s.insert(s.reps, ident.Path{ident.M(uint8(s.next(2)), s.dis(2))}, "r")
		return
	}
	h, _ := s.reps[0].tr.MiniOf(base)
	ids, _ := live(s.reps[0].ref.root, nil)
	how, bits, solo := s.next(5), [2]uint8{uint8(s.next(2)), uint8(s.next(2))}, h == math.MaxUint32 && slices.ContainsFunc(ids, base.Equal)
	sites := []ident.SiteID{ident.SiteID(2 + s.next(3))}
	if three {
		sites = []ident.SiteID{4, 3, 2}
	}
	reversed := three && how < 4 && !slices.ContainsFunc(s.reps[0].tr.Sites(), func(x ident.SiteID) bool { return x >= 2 && x <= 4 })
	for _, site := range sites {
		id, d := base.StripLastDis(), s.dis(site)
		switch how {
		case 0:
			id = base.Child(ident.M(bits[0], d))
		case 1:
			id[len(id)-1] = ident.M(base.Last().Bit, d)
		case 2:
			id = append(base.Child(ident.J(bits[0])), ident.M(bits[1], d))
		case 3:
			id = id.Child(ident.M(bits[0], d))
		default:
			id = base.Child(ident.M(bits[0], s.dis(site))).Child(ident.M(bits[1], d))
		}
		if s.reps[0].ref.exists(id) {
			return
		}
		s.insert(s.reps, id, fmt.Sprint("r", s.step))
		if _, kids := s.reps[0].tr.MiniOf(base); kids && how == 0 {
			s.met["a mini with children"]++
		}
		if solo && how < 2 {
			s.met[[]string{"a live solo gaining a child", "a live solo gaining a sibling"}[how]]++
		}
	}
	if reversed {
		s.met["three sites met against their order in one mini chain"]++
	}
}

// chain types a chain of one site's lone minis, each in the node below the
// one above on a side the input picks, below a live atom's node, and
// deletes them in an order the input picks, now and then in a later
// revision: under SDIS their tombs join into runs.
func (s *script) chain() {
	s.t.Helper()
	node := ident.Path{ident.J(uint8(s.next(2)))}
	if base := s.pick(false); base != nil {
		node = base.StripLastDis().Child(ident.J(uint8(s.next(2))))
	}
	k, d := 2+s.next(31), s.dis(ident.SiteID(5+s.next(2)))
	var ids []ident.Path
	for j := 0; j < k; j++ {
		id := append(node[:len(node)-1:len(node)-1], ident.M(node.Last().Bit, d))
		if node = node.Child(ident.J(uint8(s.next(2)))); !s.reps[0].ref.exists(id) {
			s.insert(s.reps, id, fmt.Sprint("c", s.step, ".", j))
			ids = append(ids, id)
		}
	}
	if order := s.next(3); order == 1 {
		slices.Reverse(ids)
	} else if order == 2 && len(ids) > 2 { // the last two first, then from the top
		ids = append([]ident.Path{ids[len(ids)-1], ids[len(ids)-2]}, ids[:len(ids)-2]...)
	}
	for _, id := range ids {
		if s.next(4) == 0 {
			s.advance()
		}
		s.remove(id, false, 0)
	}
}

// advance moves every replica's revision clock on.
func (s *script) advance() {
	for _, r := range s.reps {
		r.tr.AdvanceRev()
		r.ref.rev++
	}
}

// reserve grows a subtree below a live or dead atom's mini or its node on
// every replica, each walking from the cache a walk to the atom leaves.
func (s *script) reserve() {
	s.t.Helper()
	base := s.pick(s.next(2) == 0)
	if base == nil {
		return
	}
	region, levels := base.Child(ident.J(uint8(s.next(2)))), 2+s.next(3)
	if s.next(3) == 0 {
		region = base.StripLastDis()
	}
	for _, r := range s.reps {
		r.tr.HasLive(base)
		r.ref.walk(base, false)
		if err := r.tr.ReserveFrom(doctree.Slot{}, region, levels); err != nil {
			s.fatalf("%s: reserve %v: %v", r.name, region, err)
		}
		r.ref.reserve(region, levels)
	}
}

// flatten flattens on every replica the writer's cold subtree, the whole
// document, or the node of an atom's ancestor, live or dead.
func (s *script) flatten() {
	s.t.Helper()
	w, region := s.reps[0], ident.Path{}
	switch s.next(4) {
	case 0:
		if region = w.tr.ColdestSubtree(w.tr.Rev()-2, 2, s.mode == ident.UDIS); region == nil {
			return
		}
	case 1:
	default:
		id := s.pick(s.next(2) == 0)
		if id == nil {
			return
		}
		region = id.StripLastDis()[:1+s.next(len(id))]
		region[len(region)-1] = ident.J(region[len(region)-1].Bit)
	}
	if j, k := w.tr.RunMember(region); k > 0 {
		s.met[[]string{"a flatten at a run's top", "a flatten inside a run"}[min(j, 1)]]++
	}
	for _, r := range s.reps {
		err := r.tr.Flatten(region)
		if ok := r.ref.flatten(region); ok != (err == nil) {
			s.fatalf("%s: flatten %v: %v; the reference flattens: %v", r.name, region, err, ok)
		}
	}
}

// roundTrip makes a new joiner from a snapshot of the writer or the reader.
// Its reference is its sender's, with the revision clock and every stamp
// at 0, as the decoder leaves them.
func (s *script) roundTrip() {
	s.t.Helper()
	from := s.reps[s.next(2)]
	tr, err := doctree.DecodeSnapshot(from.tr.AppendSnapshot(nil))
	if err != nil {
		s.fatalf("decode %s: %v", from.name, err)
	}
	j := newRef(from.ref.prune)
	each(from.ref.root, nil, func(id ident.Path, n *rnode, m *rmini) {
		if sl := j.walk(id, true)[len(id)]; m != nil {
			sl.m.atom, sl.m.live = m.atom, m.live
		} else {
			sl.n.flat, sl.n.atoms = n.flat, n.atoms
		}
	})
	s.reps = append(s.reps[:2], &replica{"joiner of the " + from.name, tr, j})
}

// holds checks r against its reference: Check, content by index and by
// range, Height, the TDC2 bytes, Stats but the heap, ColdestSubtree, no
// stamp chunk while the revision clock is at 0, and
// for every identifier the script has met Exists and, where the tree
// holds it live outside a flat region, IDAt; and the free-slot scan from
// the document start and after every used identifier with a slot.
func (s *script) holds(r *replica) {
	s.t.Helper()
	tr, rf := r.tr, r.ref
	if err := tr.Check(); err != nil {
		s.fatalf("%s: %v", r.name, err)
	}
	ids, atoms := live(rf.root, nil)
	if got := tr.Content(); !slices.Equal(got, atoms) || tr.Height() != rf.height {
		s.fatalf("%s holds %q at height %d, the reference %q at %d", r.name, got, tr.Height(), atoms, rf.height)
	}
	for i := range atoms {
		var got []string
		tr.VisitBytes(i, len(atoms), func(a []byte) bool { got = append(got, string(a)); return len(got) < 3 })
		if a, err := tr.AtomAt(i); err != nil || a != atoms[i] || !slices.Equal(got, atoms[i:min(i+3, len(atoms))]) {
			s.fatalf("%s: AtomAt(%d) = %q (%v) and a visit from it %q, want %q", r.name, i, a, err, got, atoms[i:min(i+3, len(atoms))])
		}
	}
	if got, want := tr.AppendSnapshot(nil), rf.snapshot(); !bytes.Equal(got, want) {
		s.fatalf("%s encodes to\n%x, the reference to\n%x", r.name, got, want)
	}
	st, want := tr.Stats(ident.PaperCost(s.mode)), rf.stats(ident.PaperCost(s.mode))
	if st.HeapBytes = 0; st != want {
		s.fatalf("%s: stats %+v, the reference's %+v", r.name, st, want)
	}
	if k := tr.StampChunks(); tr.Rev() == 0 && k != 0 {
		s.fatalf("%s holds %d stamp chunks, and its revision clock never moved", r.name, k)
	}
	for k := range 8 {
		cutoff, minNodes, liveOnly := int64(rf.rev)-int64(k/2), 1+k%3, k%2 == 1
		got := tr.ColdestSubtree(cutoff, minNodes, liveOnly)
		if want, score, _, _, _, _ := coldest(rf.root, ident.Path{}, cutoff, minNodes, liveOnly); (got != nil) != (score >= 0) || !got.Equal(want) {
			s.fatalf("%s: ColdestSubtree(%d, %d, %v) = %v, the reference's %v", r.name, cutoff, minNodes, liveOnly, got, want)
		}
	}
	// The scans run on a decoded copy: a scan builds the reserved nodes it
	// enters, which would leave the steps that follow no count to meet.
	c, err := doctree.DecodeSnapshot(tr.AppendSnapshot(nil))
	if err != nil {
		s.fatalf("%s: decode: %v", r.name, err)
	}
	d := ident.Dis{Counter: s.counter + 1, Site: 9}
	slots := rf.freeSlots(d)
	scan := func(id ident.Path, at doctree.Slot) {
		if got, _ := c.FreeSlotAfter(nil, id, at, d); !got.Equal(slots[id.String()]) {
			s.fatalf("%s: the scan after %v finds %v, the reference %v", r.name, id, got, slots[id.String()])
		} else if at.AboveRun() {
			s.met["a scan from a run's tomb"]++
		}
	}
	scan(nil, doctree.Slot{})
	for _, id := range s.seen {
		at, used := tr.ExistsFrom(doctree.Slot{}, id)
		if used != rf.exists(id) {
			s.fatalf("%s: Exists(%v) = %v, the reference %v", r.name, id, used, !used)
		}
		if i, live := slices.BinarySearchFunc(ids, id, ident.Compare); live && at != (doctree.Slot{}) {
			if got, err := tr.IDAt(i); err != nil || !got.Equal(id) { // outside a flat region: it explodes nothing
				s.fatalf("%s: IDAt(%d) = %v (%v), want %v", r.name, i, got, err, id)
			}
		}
		if at, _ := c.ExistsFrom(doctree.Slot{}, id); at != (doctree.Slot{}) {
			scan(id, at)
		}
	}
}

// run plays the script: each step is one of the operations above, the
// input picks which and where.
func (s *script) run() {
	s.t.Helper()
	for ; len(s.data) > 0 && s.step < 64; s.step++ {
		w := s.reps[0]
		n := w.tr.Len()
		switch op := s.next(13); op {
		case 0, 1:
			s.local(s.next(n+1), 1+s.next(4), s.dis(1))
		case 2, 3: // a delete, the writer's or remote; after 2 the writer types at the gap again
			if n == 0 {
				continue
			}
			i := s.next(n)
			ids, _ := live(w.ref.root, nil)
			if s.remove(ids[i], op == 2 || s.next(2) == 0, i); op == 3 {
				continue
			}
			d := ids[i].Last().Dis
			if s.mode == ident.UDIS || d.IsCanonical() {
				d = s.dis(1)
			}
			s.local(i, 1+s.next(2), d)
		case 4, 5:
			s.remote(op == 5)
		case 6: // a duplicate delete
			if id := s.pick(true); id != nil {
				s.remove(id, false, 0)
			}
		case 7: // a re-delivered insert of a deleted atom
			if id := s.pick(true); id != nil {
				s.insert(s.reps, id, fmt.Sprint("r", s.step))
			}
		case 8:
			s.reserve()
		case 9:
			s.advance()
		case 10:
			s.flatten()
		case 11:
			s.roundTrip()
		default:
			s.chain()
		}
		if _, _, longest := w.tr.Runs(); longest == doctree.MaxRun {
			s.met["a run at its longest"]++
		}
		for _, r := range s.reps {
			s.holds(r)
		}
	}
}

func newRef(prune bool) *ref { return &ref{root: &rnode{}, prune: prune} }

// play decodes data into a script and runs it, counting in met the forms
// it meets: its first byte picks SDIS or UDIS.
func play(t *testing.T, data []byte, met map[string]int) {
	mode := ident.SDIS
	if len(data) > 0 && data[0]&1 == 1 {
		mode = ident.UDIS
	}
	if met == nil {
		met = map[string]int{}
	}
	s := &script{t: t, data: data[min(len(data), 1):], mode: mode, met: met, reps: []*replica{
		{"writer", doctree.New(), newRef(mode == ident.UDIS)}, {"reader", doctree.New(), newRef(mode == ident.UDIS)}}}
	s.run()
}

// FuzzTreeAgainstReference holds the tree, in every record form it keeps,
// to the paper's abstract tree: a writer, a reader and a joiner each
// answer as a reference fed the same steps does.
func FuzzTreeAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { play(t, data, nil) })
}

// TestReferenceCorpusMeetsEveryForm plays the committed corpus and
// requires it to meet each record form and each way a walk meets one.
func TestReferenceCorpusMeetsEveryForm(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzTreeAgainstReference/*")
	if err != nil {
		t.Fatal(err)
	}
	met := map[string]int{}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(b), "\n")[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		play(t, []byte(data), met)
	}
	t.Logf("%d inputs: %v", len(files), met)
	for _, form := range []string{"a run at its longest", "a scan from a run's tomb", "a free slot in a reservation no walk had built",
		"a live solo gaining a sibling", "a live solo gaining a child", "a mini with children", "a flatten inside a run",
		"a flatten at a run's top", "a UDIS prune through a placeholder mini", "an insert re-creating a placeholder mini in an existing node",
		"three sites met against their order in one mini chain"} {
		if met[form] == 0 {
			t.Errorf("the corpus never meets %s", form)
		}
	}
}
