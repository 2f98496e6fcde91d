package doctree_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/trace"
)

// goldenProfile is the root package's goldenHistory (golden_test.go): the
// shape of benchmark/script.go's historyProfile at a size that replays in
// a second.
var goldenProfile = trace.Profile{
	Name: "history.tex", Granularity: trace.Lines, Seed: 11,
	InitialAtoms: 100, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
	EditsPerRevision: 12, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
}

// writeHistory replays profile as local edits on a fresh replica of site
// 1, a revision's consecutive inserts as one run, ending each revision
// (advancing the revision clock) if revisions is set, and returns the
// replica and the operations it minted.
func writeHistory(t *testing.T, profile trace.Profile, revisions bool) (*core.Document, []core.Op) {
	t.Helper()
	tr, err := trace.Generate(profile)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := core.NewDocument(core.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := doc.InsertRunAt(0, tr.Initial)
	for _, rev := range tr.Revisions {
		for i := 0; err == nil && i < len(rev.Ops); i++ {
			var op core.Op
			if e := rev.Ops[i]; e.Kind == diff.Delete {
				op, err = doc.DeleteAt(e.Index)
			} else {
				atoms := []string{e.Atom}
				for ; i+1 < len(rev.Ops) && rev.Ops[i+1].Kind == diff.Insert && rev.Ops[i+1].Index == e.Index+len(atoms); i++ {
					atoms = append(atoms, rev.Ops[i+1].Atom)
				}
				var run []core.Op
				run, err = doc.InsertRunAt(e.Index, atoms)
				ops = append(ops, run...)
				continue
			}
			ops = append(ops, op)
		}
		if revisions {
			doc.EndRevision()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return doc, ops
}

// records are what a tree holds in node records: runs, their members, and
// records that are not empty nodes.
type records struct{ runs, members, full int }

func recordsOf(t *testing.T, tr *doctree.Tree) records {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	runs, members, _ := tr.Runs()
	return records{runs, members, tr.Records() - tr.EmptyNodes()}
}

// TestRunsMatchTheirSnapshots is the count gate of the runs on
// goldenHistory's tree, replayed three ways: local edits on a writer, the
// same operations applied one by one on a fresh replica as ApplyBatch
// does, and a joiner decoding the writer's snapshot. A tree and a joiner
// of it hold the same runs, members and records other than empty nodes:
// runs form as tombs die (join) and as a snapshot is read, and no walk a
// writer or a reader makes leaves two tombs unjoined that could be one
// run. The writer's reserved nodes, which a reader never builds, give
// two of its tombs a second child (an empty node) that the reader's lack,
// so the reader holds two runs more. A writer whose revision clock moves
// keeps some tombs out of the run below them (see join); its joiner, whose
// stamps are all 0, does not.
func TestRunsMatchTheirSnapshots(t *testing.T) {
	joiner := func(tr *doctree.Tree) *doctree.Tree {
		c, err := storage.Decode(storage.Encode(tr))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	writer, ops := writeHistory(t, goldenProfile, false)
	reader, err := core.NewDocument(core.Config{Site: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := reader.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	clocked, _ := writeHistory(t, goldenProfile, true)
	for _, tc := range []struct {
		name       string
		tree       *doctree.Tree
		want, join records
	}{
		{"writer", writer.Tree(), records{846, 2470, 4270}, records{846, 2470, 4270}},
		{"reader", reader.Tree(), records{848, 2474, 4268}, records{848, 2474, 4268}},
		{"writer with a revision clock", clocked.Tree(), records{812, 2093, 4613}, records{846, 2470, 4270}},
	} {
		got, join := recordsOf(t, tc.tree), recordsOf(t, joiner(tc.tree))
		if got != tc.want || join != tc.join {
			t.Errorf("%s: %+v, its joiner %+v; want %+v and %+v", tc.name, got, join, tc.want, tc.join)
		}
	}
}

// TestRunKeepsColdestSubtree: a tomb joins the run below it only when that
// run is stamped as recently. A chain deleted from the bottom over two
// revisions stays two records, so the cold lower tomb is still the
// candidate it was; deleted from the top it becomes one run, whose members
// read as hot as its last, and a live atom elsewhere is the candidate.
func TestRunKeepsColdestSubtree(t *testing.T) {
	chain := []ident.Path{ident.MustParsePath("[(1:s1)]"), ident.MustParsePath("[1(1:s1)]")}
	for _, tc := range []struct {
		name  string
		order []int
		runs  int
		cold  string
	}{
		{"bottom first", []int{1, 0}, 0, "[11]"},
		{"top first", []int{0, 1}, 1, "[0]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := doctree.New()
			for _, id := range append(chain, ident.MustParsePath("[(0:s2)]")) {
				if err := tr.InsertID(id, "x"); err != nil {
					t.Fatal(err)
				}
			}
			for i, k := range tc.order {
				tr.AdvanceRev()
				if i == 1 {
					tr.AdvanceRev()
				}
				if _, err := tr.DeleteID(chain[k], false); err != nil {
					t.Fatal(err)
				}
			}
			if runs, _, _ := tr.Runs(); runs != tc.runs {
				t.Errorf("%d runs, want %d", runs, tc.runs)
			}
			if got := tr.ColdestSubtree(2, 1, false); !got.Equal(ident.MustParsePath(tc.cold)) {
				t.Errorf("ColdestSubtree(2) = %v, want %s", got, tc.cold)
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
