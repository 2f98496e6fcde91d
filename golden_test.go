package treedoc

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/trace"
)

// TestGoldenIdentifiers pins the identifiers a replica mints and the
// snapshot bytes it writes: two histories are replayed through
// core.Document and the hash of every minted operation's wire bytes, and
// of storage.Encode of the final tree, must equal constants recorded
// before internal/doctree moved to index-addressed slabs. A tree-layout
// change that disturbed the free-slot search budget, the walk cache or
// the mini order would move wire_bytes_per_op or the snapshot format;
// this catches it without a benchmark run.
func TestGoldenIdentifiers(t *testing.T) {
	latex, err := trace.ProfileByName("acf.tex")
	if err != nil {
		t.Fatal(err)
	}
	// The shape of benchmark/script.go's historyProfile (LaTeX calibration,
	// line atoms, drifting hot spots), at a size that replays in a second.
	history := trace.Profile{
		Name: "history.tex", Granularity: trace.Lines, Seed: 11,
		InitialAtoms: 100, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
		EditsPerRevision: 12, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
	}
	for _, tc := range []struct {
		name     string
		profile  trace.Profile
		cfg      core.Config
		ops, enc string
	}{
		// BenchmarkReplayLatex/treedoc's configuration.
		{"latex-udis-naive", latex, core.Config{Site: 1, Mode: ident.UDIS, Strategy: core.Naive{}},
			"2b2c7999617c097313fe7217f7411e32f71dc61e8bd90f4b660d6069c659bbc7",
			"5e63f88e9924c55575c7aaf60f7b3c74120e70a1abdadceb7477fbb30a116aaf"},
		// The paper's flatten-2 setting: cold-subtree choice and explode
		// decide which identifiers later edits see.
		{"latex-sdis-flatten2", latex, core.Config{Site: 1, Flatten: core.FlattenPolicy{Interval: 2, ColdRevisions: 1}},
			"0c041e1a5c0833990327103ba389a6f3dc17448f512a5a10c714b91bf71be9e8",
			"27ab9a58099fa5133a750494ddf83cb24a805a97f45856963817de9244b398ab"},
		// The public default (SDIS, balanced), as the benchmark's writers run it.
		{"history-sdis-balanced", history, core.Config{Site: 1},
			"14c05fe89620b4b551d16a52b2fdf58589a9116d88aba23ff56ae1444c1894ae",
			"709c2ccc1c5a307c6629480a1fafe050b98cae4a2f25f2a46dae50f1ff873c7b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.Generate(tc.profile)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := core.NewDocument(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf []byte
			note := func(ops ...core.Op) {
				for _, op := range ops {
					buf = op.AppendBinary(buf[:0])
					h.Write(buf)
				}
			}
			ops, err := doc.InsertRunAt(0, tr.Initial)
			if err != nil {
				t.Fatal(err)
			}
			note(ops...)
			for ri, rev := range tr.Revisions {
				for i := 0; i < len(rev.Ops); i++ {
					e := rev.Ops[i]
					if e.Kind == diff.Delete {
						op, err := doc.DeleteAt(e.Index)
						if err != nil {
							t.Fatalf("revision %d: %v", ri, err)
						}
						note(op)
						continue
					}
					// Consecutive inserts go through InsertRunAt, single ones
					// through InsertAt, so both allocation entry points mint.
					atoms := []string{e.Atom}
					for i+1 < len(rev.Ops) && rev.Ops[i+1].Kind == diff.Insert && rev.Ops[i+1].Index == e.Index+len(atoms) {
						i++
						atoms = append(atoms, rev.Ops[i].Atom)
					}
					if len(atoms) == 1 {
						op, err := doc.InsertAt(e.Index, e.Atom)
						if err != nil {
							t.Fatalf("revision %d: %v", ri, err)
						}
						note(op)
						continue
					}
					ops, err := doc.InsertRunAt(e.Index, atoms)
					if err != nil {
						t.Fatalf("revision %d: %v", ri, err)
					}
					note(ops...)
				}
				doc.EndRevision()
			}
			enc := sha256.Sum256(storage.Encode(doc.Tree()))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.ops {
				t.Errorf("minted ops hash = %s, want %s", got, tc.ops)
			}
			if got := hex.EncodeToString(enc[:]); got != tc.enc {
				t.Errorf("snapshot hash = %s, want %s", got, tc.enc)
			}
		})
	}
}
