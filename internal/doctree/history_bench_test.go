package doctree_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/bench"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/trace"
)

// BenchmarkFreeSearchHistory prices the old root-down walk against the
// scan on the document a late-join writer builds: the first history of
// benchmark/'s late-join workload at seed 1 (benchmark/script.go's
// historyProfile at its 2,000-line size, trace seed 4), applied with
// consecutive inserts as runs.
// Each search is one gap of the finished document, start and end included,
// with its neighbours and their slots as a local insert would find them.
// Both report the share of searches that find a slot; the walk reports the
// nodes it enters per search, the scan the levels it climbs from p to the
// node below which the answer lies (the slot, or the right neighbour).
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
	var visits, climb, found int
	for _, g := range gaps {
		want, v := t.FreeMiniBetweenOracle(g.p, g.f, d)
		got, _ := t.FreeSlotAfter(nil, g.p, g.at.P, d)
		if !got.Equal(want) {
			b.Fatalf("gap (%v, %v): scan %v, walk %v", g.p, g.f, got, want)
		}
		visits += v
		answer := g.f
		if got != nil {
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
	for _, bc := range []struct {
		name, unit string
		nodes      float64
		fn         func(g *gap) ident.Path
	}{
		{"walk", "visits/search", float64(visits), func(g *gap) ident.Path { got, _ := t.FreeMiniBetweenOracle(g.p, g.f, d); return got }},
		{"scan", "climb/search", float64(climb), func(g *gap) ident.Path {
			got, _ := t.FreeSlotAfter(scratch[:0], g.p, g.at.P, d)
			if got != nil {
				scratch = got
			}
			return got
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.fn(&gaps[i%len(gaps)])
			}
			b.ReportMetric(bc.nodes/float64(len(gaps)), bc.unit)
			b.ReportMetric(float64(found)/float64(len(gaps)), "found/search")
		})
	}
}
