package doctree_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/bench"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/trace"
)

// BenchmarkFreeSearchHistory prices the scan on the document a late-join
// writer builds: the first history of benchmark/'s late-join workload at
// seed 1 (benchmark/script.go's historyProfile at its 2,000-line size,
// trace seed 4), applied with consecutive inserts as runs.
// Each search is one gap of the finished document, start and end included,
// with its neighbours and their slots as a local insert would find them.
// It reports the share of searches that find a slot and the levels the
// scan climbs from p to the node below which the answer lies (the slot,
// or the right neighbour).
func BenchmarkFreeSearchHistory(b *testing.B) {
	tr, err := trace.Generate(trace.Profile{
		Name: "history.tex", Granularity: trace.Lines, Seed: 4,
		InitialAtoms: 200, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
		EditsPerRevision: 30, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := core.NewDocument(core.Config{Site: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := doc.InsertRunAt(0, tr.Initial); err != nil {
		b.Fatal(err)
	}
	for _, rev := range tr.Revisions {
		if err := bench.ApplyRevision(doc, rev.Ops, true); err != nil {
			b.Fatal(err)
		}
	}
	t := doc.Tree()
	type gap struct {
		p, f ident.Path
		at   doctree.Gap
	}
	gaps := make([]gap, t.Len()+1)
	for i := range gaps {
		g := &gaps[i]
		switch {
		case i > 0 && i < t.Len():
			g.p, g.f, g.at, err = t.AppendNeighborIDs(nil, nil, i)
		case i > 0:
			g.p, g.at.P, err = t.AppendIDAt(nil, i-1)
		default:
			g.f, g.at.F, err = t.AppendIDAt(nil, i)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	d := ident.Dis{Site: 2}
	var climb, found int
	for _, g := range gaps {
		answer := g.f
		if got, _ := t.FreeSlotAfter(nil, g.p, g.at.P, d); got != nil {
			answer = got
			found++
		}
		c := 0
		for c < len(g.p) && c < len(answer) && g.p[c] == answer[c] {
			c++
		}
		climb += len(g.p) - c
	}
	b.Logf("%d gaps, height %d", len(gaps), t.Height())
	var scratch ident.Path
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := &gaps[i%len(gaps)]
			if got, _ := t.FreeSlotAfter(scratch[:0], g.p, g.at.P, d); got != nil {
				scratch = got
			}
		}
		b.ReportMetric(float64(climb)/float64(len(gaps)), "climb/search")
		b.ReportMetric(float64(found)/float64(len(gaps)), "found/search")
	})
}

// BenchmarkAblationWalkCacheCopy prices the walk cache's copy of each
// walked identifier, which bounds what copying only the part past the
// depth a walk resumed at could save (docs/ARCHITECTURE.md §10.3: not
// enough to keep that suffix copy). A replica applies a late-join
// writer's history, the same one as BenchmarkFreeSearchHistory, as remote
// operations, one per iteration on a tree rebuilt when the history is
// done; "twice" then copies the identifier into the cache once more, so
// its extra time over "once" is one whole copy of an identifier the walk
// has just read. The metrics are the identifier's mean length and the
// mean number of elements past the prefix it shares with the previous one.
func BenchmarkAblationWalkCacheCopy(b *testing.B) {
	tr, err := trace.Generate(trace.Profile{
		Name: "history.tex", Granularity: trace.Lines, Seed: 4,
		InitialAtoms: 200, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
		EditsPerRevision: 30, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	src, err := core.NewDocument(core.Config{Site: 1})
	if err != nil {
		b.Fatal(err)
	}
	ops, err := src.InsertRunAt(0, tr.Initial)
	if err != nil {
		b.Fatal(err)
	}
	for _, rev := range tr.Revisions {
		for _, e := range rev.Ops {
			var op core.Op
			if e.Kind == diff.Insert {
				op, err = src.InsertAt(e.Index, e.Atom)
			} else {
				op, err = src.DeleteAt(e.Index)
			}
			if err != nil {
				b.Fatal(err)
			}
			ops = append(ops, op)
		}
	}
	ids := make([]ident.Path, len(ops))
	var length, copied int
	for k, op := range ops {
		ids[k] = op.ID.AppendPath(nil)
		shared := 0
		for k > 0 && shared < len(ids[k]) && shared < len(ids[k-1]) && ids[k][shared] == ids[k-1][shared] {
			shared++
		}
		length, copied = length+len(ids[k]), copied+len(ids[k])-shared
	}
	for _, bc := range []struct {
		name  string
		twice bool
	}{{"once", false}, {"twice", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var t *doctree.Tree
			for i := 0; i < b.N; i++ {
				k := i % len(ops)
				if k == 0 {
					b.StopTimer()
					t = doctree.New()
					b.StartTimer()
				}
				var at doctree.Slot
				if ops[k].Kind == core.OpInsert {
					at, err = t.InsertFrom(doctree.Slot{}, ids[k], ops[k].Atom)
				} else {
					_, err = t.DeleteID(ids[k], false)
					at, _ = t.ExistsFrom(doctree.Slot{}, ids[k])
				}
				if err != nil {
					b.Fatal(err)
				}
				if bc.twice {
					t.CacheWalk(ids[k], at)
				}
			}
			b.ReportMetric(float64(length)/float64(len(ids)), "elems/id")
			b.ReportMetric(float64(copied)/float64(len(ids)), "suffix/id")
		})
	}
}
