package treedoc

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5), plus the CPU-cost claim, baseline comparisons and
// ablations of the design choices called out in DESIGN.md §5. Regenerate
// everything with:
//
//	go test -bench=. -benchmem
//
// The table benchmarks report their headline quantity through
// b.ReportMetric so `go test -bench` output doubles as the experiment
// record; cmd/treedoc-bench prints the full formatted tables.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/bench"
	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

func mustTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	p, err := trace.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTable1Measurements regenerates Table 1: overheads per document
// and flatten setting. Reported metric: mean memory overhead ratio across
// all rows.
func BenchmarkTable1Measurements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var mem float64
		for _, r := range rows {
			mem += r.MemOvhd
		}
		b.ReportMetric(mem/float64(len(rows)), "memovhd/doc")
	}
}

// BenchmarkTable2Workloads regenerates Table 2: the workload statistics.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Revisions), "avg-revisions")
	}
}

// BenchmarkTable3Tombstones regenerates Table 3: tombstone fraction under
// flatten and balancing. Reported metric: flatten-2 tombstone percentage
// without balancing (paper: 15.8%).
func BenchmarkTable3Tombstones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[2].NoBalance, "flatten2-tomb-%")
	}
}

// BenchmarkTable4SDISvsUDIS regenerates Table 4. Reported metric: the
// no-flatten SDIS/UDIS overhead ratio (paper: 570/140 ≈ 4).
func BenchmarkTable4SDISvsUDIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var sdis, udis float64
		for _, c := range cells {
			if c.Flatten == "no-flatten" && !c.Balanced {
				if c.Scheme == ident.SDIS {
					sdis = c.OverheadPerAtom
				} else {
					udis = c.OverheadPerAtom
				}
			}
		}
		if udis > 0 {
			b.ReportMetric(sdis/udis, "sdis/udis-ovhd")
		}
	}
}

// BenchmarkTable5VsLogoot regenerates Table 5. Reported metric: the mean
// Logoot/Treedoc identifier-size ratio (paper: 1.8–3.9).
func BenchmarkTable5VsLogoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, r := range rows {
			ratio += r.Ratio
		}
		b.ReportMetric(ratio/float64(len(rows)), "logoot/treedoc")
	}
}

// BenchmarkFigure6NodeEvolution regenerates Figure 6's two series. Reported
// metric: the peak node count of the acf.tex lifetime.
func BenchmarkFigure6NodeEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		peak := 0
		for _, pt := range series {
			if pt.Nodes > peak {
				peak = pt.Nodes
			}
		}
		b.ReportMetric(float64(peak), "peak-nodes")
	}
}

// BenchmarkReplayDistributedComputing is the Section 5.2 CPU claim: the
// full 870-revision Wikipedia history replays in well under the paper's
// 1.44 seconds.
func BenchmarkReplayDistributedComputing(b *testing.B) {
	tr := mustTrace(b, "Distributed Computing")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ReplayTreedoc(tr, bench.ReplayConfig{Mode: ident.SDIS}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayLatex compares the three sequence CRDTs on the same LaTeX
// history (extended baseline comparison beyond the paper's Table 5).
func BenchmarkReplayLatex(b *testing.B) {
	tr := mustTrace(b, "acf.tex")
	b.Run("treedoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// SkipDisk: the logoot and woot baselines have no disk format,
			// so the wall-time comparison must not charge treedoc for
			// serialising one (BenchmarkStorageCodec measures that path).
			res, err := bench.ReplayTreedoc(tr, bench.ReplayConfig{Mode: ident.UDIS, SkipDisk: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stats.Tree.AvgIDBits(), "bits/id")
		}
	})
	b.Run("logoot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.ReplayLogoot(tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stats.AvgIDBits(), "bits/id")
		}
	})
	b.Run("woot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.ReplayWoot(tr)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.LiveAtoms > 0 {
				b.ReportMetric(float64(res.Stats.TotalIDBits)/float64(res.Stats.LiveAtoms), "bits/id")
			}
		}
	})
}

// BenchmarkDocHeap builds the document BenchmarkReplayLatex replays and
// reports what its tree structure occupies on the Go heap per live atom
// (doctree.Stats.HeapBytes: slab records and slack) beside the paper's
// cost-model figure for the same tree, so a layout change shows up here
// without a heap profile.
func BenchmarkDocHeap(b *testing.B) {
	tr := mustTrace(b, "acf.tex")
	for i := 0; i < b.N; i++ {
		res, err := bench.ReplayTreedoc(tr, bench.ReplayConfig{Mode: ident.UDIS, SkipDisk: true})
		if err != nil {
			b.Fatal(err)
		}
		st := res.Stats.Tree
		b.ReportMetric(float64(st.HeapBytes)/float64(st.LiveAtoms), "heapB/atom")
		b.ReportMetric(float64(st.MemBytes)/float64(st.LiveAtoms), "modelB/atom")
	}
}

// BenchmarkLocalEdits measures single-replica edit cost on a document of
// fixed size and age. Each of the first three rows inserts and deletes at
// one place in a fresh 10k-atom document, so the size stays constant — but
// not the tree: under the default SDIS every pair leaves a tombstone in the
// gap and the next insert allocates below it, so the cost of an iteration
// grows with the iterations before it. Every row therefore rebuilds its
// document every rebuildEvery iterations with the timer stopped: what is
// timed is the mean of edits 1..2,000 on a fresh build whatever b.N is,
// and a faster build handed a larger b.N measures the same thing.
//
// insert-deep-history is identifier allocation's own row: single-atom
// inserts at the hot spots of a document that already carries a 20k-op
// history of the shape benchmark/script.go's historyProfile replays
// (lines, 55% modifications, drifting hot spots), where the tree is over
// 60 levels deep and the free-slot search has empty nodes to weigh on the
// way to every answer.
func BenchmarkLocalEdits(b *testing.B) {
	const (
		steadySize   = 10_000
		rebuildEvery = 2_000
	)
	build := func(b *testing.B) *Doc {
		b.Helper()
		d, err := New(WithSite(1))
		if err != nil {
			b.Fatal(err)
		}
		atoms := make([]string, steadySize)
		for i := range atoms {
			atoms[i] = "atom"
		}
		if _, err := d.InsertRunAt(0, atoms); err != nil {
			b.Fatal(err)
		}
		return d
	}
	// run times edit over b.N iterations, on a document no older than
	// rebuildEvery of them.
	run := func(b *testing.B, build func(*testing.B) *Doc, edit func(d *Doc, i int) error) {
		d := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%rebuildEvery == 0 {
				b.StopTimer()
				d = build(b)
				b.StartTimer()
			}
			if err := edit(d, i); err != nil {
				b.Fatal(err)
			}
		}
	}
	insertDelete := func(at func(d *Doc) int) func(*Doc, int) error {
		return func(d *Doc, _ int) error {
			pos := at(d)
			if _, err := d.InsertAt(pos, "atom"); err != nil {
				return err
			}
			_, err := d.DeleteAt(pos)
			return err
		}
	}
	b.Run("append-delete", func(b *testing.B) {
		run(b, build, insertDelete(func(d *Doc) int { return d.Len() }))
	})
	b.Run("insert-delete-front", func(b *testing.B) {
		run(b, build, insertDelete(func(*Doc) int { return 0 }))
	})
	b.Run("insert-delete-middle", func(b *testing.B) {
		run(b, build, insertDelete(func(d *Doc) int { return d.Len() / 2 }))
	})
	b.Run("insert-deep-history", func(b *testing.B) {
		tr, err := trace.Generate(trace.Profile{
			Name: "history.tex", Granularity: trace.Lines, Seed: 1,
			InitialAtoms: 200, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
			EditsPerRevision: 30, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
		})
		if err != nil {
			b.Fatal(err)
		}
		// The hot spots are where the history's last revisions inserted.
		var spots []int
		for _, rev := range tr.Revisions[len(tr.Revisions)-8:] {
			for _, op := range rev.Ops {
				if op.Kind == diff.Insert {
					spots = append(spots, op.Index)
				}
			}
		}
		history := func(b *testing.B) *Doc {
			b.Helper()
			d, err := New(WithSite(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.InsertRunAt(0, tr.Initial); err != nil {
				b.Fatal(err)
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			// Consecutive inserts go in as one run, the way an editor
			// session submits them.
			for _, rev := range tr.Revisions {
				if err := bench.ApplyRevision(d.doc, rev.Ops, true); err != nil {
					b.Fatal(err)
				}
			}
			if h := d.doc.Tree().Height(); h < 60 {
				b.Fatalf("history reaches height %d, want >= 60", h)
			}
			return d
		}
		run(b, history, func(d *Doc, i int) error {
			_, err := d.InsertAt(min(spots[i%len(spots)], d.Len()), "atom")
			return err
		})
	})
	b.Run("apply-remote", func(b *testing.B) {
		// Pre-build a bounded op batch and replay it round-robin against
		// fresh replicas so state cannot grow with b.N.
		const batch = 2_000
		src, err := New(WithSite(1))
		if err != nil {
			b.Fatal(err)
		}
		ops := make([]Op, 0, batch)
		for i := 0; i < batch; i++ {
			op, err := src.Append("atom")
			if err != nil {
				b.Fatal(err)
			}
			ops = append(ops, op)
		}
		dst, err := New(WithSite(2))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.Apply(ops[i%batch]); err != nil {
				b.Fatal(err)
			}
			if i%batch == batch-1 {
				b.StopTimer()
				dst, err = New(WithSite(2))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
}

// BenchmarkAblationStrategy isolates the balancing heuristic (DESIGN.md
// ablation 1): identifier growth under pure appends.
func BenchmarkAblationStrategy(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"naive", WithNaiveAllocation()},
		{"balanced", WithBalancedAllocation()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := New(WithSite(1), tc.opt)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 1000; j++ {
					if _, err := d.Append("x"); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(d.Stats().Tree.AvgIDBits(), "bits/id")
			}
		})
	}
}

// BenchmarkAblationDisWidth compares disambiguator widths (DESIGN.md
// ablation 2): UDIS 10 B, SDIS 6 B, compact SDIS 2 B.
func BenchmarkAblationDisWidth(b *testing.B) {
	tr := mustTrace(b, "algorithms.tex")
	run := func(b *testing.B, rc bench.ReplayConfig) {
		for i := 0; i < b.N; i++ {
			res, err := bench.ReplayTreedoc(tr, rc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stats.Tree.OverheadBitsPerAtom(), "ovhd-bits/atom")
		}
	}
	b.Run("udis-10B", func(b *testing.B) { run(b, bench.ReplayConfig{Mode: ident.UDIS}) })
	b.Run("sdis-6B", func(b *testing.B) { run(b, bench.ReplayConfig{Mode: ident.SDIS}) })
	// The compact 2-byte variant reuses the SDIS replay with the
	// known-membership cost model applied at measurement time.
	b.Run("sdis-2B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := New(WithSite(1), WithCompactSiteIDs())
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 500; j++ {
				if _, err := d.Append("x"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(d.Stats().Tree.AvgIDBits(), "bits/id")
		}
	})
}

// BenchmarkAblationFlattenInterval sweeps the flatten heuristic interval
// (DESIGN.md ablation 3) on acf.tex.
func BenchmarkAblationFlattenInterval(b *testing.B) {
	tr := mustTrace(b, "acf.tex")
	for _, iv := range []int{0, 1, 2, 4, 8} {
		name := "never"
		if iv > 0 {
			name = fmt.Sprintf("every-%d", iv)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.ReplayTreedoc(tr, bench.ReplayConfig{Mode: ident.SDIS, FlattenInterval: iv})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Tree.Nodes), "final-nodes")
			}
		})
	}
}

// BenchmarkAblationGranularity varies atom granularity (Section 5 studies
// line vs paragraph; characters added for completeness).
func BenchmarkAblationGranularity(b *testing.B) {
	for _, tc := range []struct {
		name  string
		atoms int
		bytes int
	}{
		{"char", 2000, 8},
		{"line", 400, 40},
		{"paragraph", 100, 140},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := trace.Profile{
				Name: tc.name, Granularity: trace.Granularity(tc.name), Seed: 7,
				InitialAtoms: tc.atoms / 4, FinalAtoms: tc.atoms, Revisions: 40,
				AtomBytes: tc.bytes, EditsPerRevision: 8, ModifyFraction: 0.6, HotSpots: 2,
				RunLength: 6,
			}
			tr, err := trace.Generate(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bench.ReplayTreedoc(tr, bench.ReplayConfig{Mode: ident.SDIS})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.Tree.MemOverheadRatio(), "memovhd")
			}
		})
	}
}

// BenchmarkClusterConvergence measures end-to-end distributed editing: 4
// replicas, random latency, 200 edits, to quiescence.
func BenchmarkClusterConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(4, WithLatency(1, 20), WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 200; e++ {
			r, err := c.Replica(SiteID(e%4 + 1))
			if err != nil {
				b.Fatal(err)
			}
			if err := r.InsertAt(r.Len(), "x"); err != nil {
				b.Fatal(err)
			}
		}
		c.Run(0)
		if !c.Converged() {
			b.Fatal("cluster did not converge")
		}
	}
}

// BenchmarkStorageCodec measures the Section 5.2 on-disk codec through the
// public snapshot API, on the document shape a join actually carries:
// goldenHistory's tree is mostly tombstones, which is where the format and
// the codec spend themselves. decode is a fresh replica's whole
// InstallSnapshot, the path a late joiner runs.
func BenchmarkStorageCodec(b *testing.B) {
	d := &Doc{doc: mintHistory(b, goldenHistory, core.Config{Site: 1}, func(core.Op) {})}
	data, err := d.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := d.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			joiner, err := New(WithSite(2))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := joiner.InstallSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyBatch measures batched remote-operation delivery: one typing
// burst spliced at a source replica and applied to a fresh replica through
// ApplyBatch, the path the replication engine uses for each incoming frame.
func BenchmarkApplyBatch(b *testing.B) {
	const batch = 2_000
	src, err := NewTextBuffer(WithSite(1))
	if err != nil {
		b.Fatal(err)
	}
	ops, err := src.Append(strings.Repeat("treedoc! ", batch/9+1)[:batch])
	if err != nil {
		b.Fatal(err)
	}
	dst, err := NewTextBuffer(WithSite(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dst.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		dst, err = NewTextBuffer(WithSite(2))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(batch, "ops/batch")
}

// BenchmarkSliceWalk guards the TextBuffer.Slice fix: the range streams out
// of one in-order walk, so a full-document slice is linear in its length.
// The per-rune-lookup implementation this replaced was quadratic, which a
// regression here would reintroduce as a >20x blowup at this size.
func BenchmarkSliceWalk(b *testing.B) {
	const size = 20_000
	buf, err := NewTextBuffer(WithSite(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := buf.Append(strings.Repeat("x", size)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := buf.Slice(0, size)
		if err != nil {
			b.Fatal(err)
		}
		if len(s) != size {
			b.Fatalf("slice length %d, want %d", len(s), size)
		}
		b.SetBytes(size)
	}
}

// BenchmarkSyncDigest guards the delta anti-entropy index: answering a
// peer's digest is a per-site binary search over run offsets plus
// contiguous suffix slices, so its cost tracks the answer size (a fixed
// 64-op lag here), not the retained-log length. The sub-benchmarks grow
// the log 128x at constant lag; near-flat ns/op across them is the
// sublinearity claim — the linear scan this replaced grew 128x with it.
func BenchmarkSyncDigest(b *testing.B) {
	const (
		sites = 8
		lag   = 64 // ops the requesting peer is behind, spread over all sites
	)
	for _, retained := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			var log transport.RetainedLog
			seqs := make(map[ident.SiteID]uint64, sites)
			for i := 0; i < retained; i++ {
				// Round-robin writers: the worst case for the run index,
				// since every append interleaves and opens a new run.
				site := ident.SiteID(i%sites + 1)
				seqs[site]++
				ts := vclock.New()
				ts[site] = seqs[site]
				log.Append(causal.Message{From: site, TS: ts})
			}
			// The peer's digest covers everything but the log's tail.
			clock := vclock.New()
			for s, q := range seqs {
				clock[s] = q - lag/sites
			}
			var dst []causal.Message
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = log.AppendMissing(dst[:0], clock)
				if len(dst) != lag {
					b.Fatalf("digest answer carried %d ops, want %d", len(dst), lag)
				}
			}
		})
	}
}

// BenchmarkOpsFrameCodec gates the layer every replicated operation crosses
// twice: one engine-sized batch (64 ops, the tail of the history-sdis-
// balanced golden history, stamped by its writer) encoded as a kindOps
// frame, and that frame decoded. wire_B/op is the frame's bytes per
// operation — the quantity the benchmark's wire_bytes_per_op measures end
// to end.
func BenchmarkOpsFrameCodec(b *testing.B) {
	const batch = 64
	stamper := causal.NewBuffer(1)
	var msgs []causal.Message
	mintHistory(b, goldenHistory, core.Config{Site: 1}, func(op core.Op) {
		msgs = append(msgs, stamper.Stamp(op))
	})
	msgs = msgs[len(msgs)-batch:]
	frame, err := transport.EncodeOps(msgs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := transport.EncodeOps(msgs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(frame))/batch, "wire_B/op")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decoded, err := transport.DecodeFrame(frame)
			if of, ok := decoded.(*transport.OpsFrame); err != nil || !ok || len(of.Msgs) != batch {
				b.Fatalf("decoded %T (%v)", decoded, err)
			}
		}
		b.ReportMetric(float64(len(frame))/batch, "wire_B/op")
	})
}
