package treedoc

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/trace"
)

// TestGoldenIdentifiers pins the identifiers a replica mints and the
// snapshot bytes it writes: two histories are replayed through
// core.Document and three hashes must equal recorded constants. enc, over
// storage.Encode of the final tree, dates from before internal/doctree
// moved to index-addressed slabs; ids, over every minted operation's
// String(), was recorded on the one-byte-per-level codec just before
// identifiers were bit-packed on the wire (PR 18). A tree-layout change
// that disturbed the free-slot search budget, the walk cache or the mini
// order moves both. ops, over the operations' wire bytes, pins the op
// codec; it was re-recorded with the packed layout while ids stood still,
// which is what shows that change moved bytes and not identifiers.
func TestGoldenIdentifiers(t *testing.T) {
	latex, err := trace.ProfileByName("acf.tex")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		profile       trace.Profile
		cfg           core.Config
		ids, ops, enc string
	}{
		// BenchmarkReplayLatex/treedoc's configuration.
		{"latex-udis-naive", latex, core.Config{Site: 1, Mode: ident.UDIS, Strategy: core.Naive{}},
			"995b1c792e040d363fc0be32366426d6d75c14907de047b63e67898c9e74ee31",
			"9198ea47c689eac379a5517c037b41ae4aeeb76782b529d6774c2495cd8b485a",
			"5e63f88e9924c55575c7aaf60f7b3c74120e70a1abdadceb7477fbb30a116aaf"},
		// The paper's flatten-2 setting: cold-subtree choice and explode
		// decide which identifiers later edits see.
		{"latex-sdis-flatten2", latex, core.Config{Site: 1, Flatten: core.FlattenPolicy{Interval: 2, ColdRevisions: 1}},
			"f1f5f6564730119ed87217b7e96bec0b4e0e2d98bb298ff7494b1853f15aeae3",
			"a514a6d54dbc8ea6423ca35a3c13ed5ab9e2b7401b84f10e50ce9e54c56e7db1",
			"27ab9a58099fa5133a750494ddf83cb24a805a97f45856963817de9244b398ab"},
		// The public default (SDIS, balanced), as the benchmark's writers run it.
		{"history-sdis-balanced", goldenHistory, core.Config{Site: 1},
			"a18ed6668856105d9db31bcd1859c2b651684f0b119784f91e55ad4cd60b8503",
			"8c1b5fdf4cf5a208dcac621950627d881222658b62cdb8dc2b72ca37e57e1949",
			"709c2ccc1c5a307c6629480a1fafe050b98cae4a2f25f2a46dae50f1ff873c7b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, hs := sha256.New(), sha256.New()
			var buf []byte
			doc := mintHistory(t, tc.profile, tc.cfg, func(op core.Op) {
				buf = op.AppendBinary(buf[:0])
				h.Write(buf)
				io.WriteString(hs, op.String()+"\n")
			})
			enc := sha256.Sum256(storage.Encode(doc.Tree()))
			if got := hex.EncodeToString(hs.Sum(nil)); got != tc.ids {
				t.Errorf("minted identifiers hash = %s, want %s", got, tc.ids)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.ops {
				t.Errorf("minted ops hash = %s, want %s", got, tc.ops)
			}
			if got := hex.EncodeToString(enc[:]); got != tc.enc {
				t.Errorf("snapshot hash = %s, want %s", got, tc.enc)
			}
		})
	}
}

// goldenHistory has the shape of benchmark/script.go's historyProfile
// (LaTeX calibration, line atoms, drifting hot spots), at a size that
// replays in a second.
var goldenHistory = trace.Profile{
	Name: "history.tex", Granularity: trace.Lines, Seed: 11,
	InitialAtoms: 100, FinalAtoms: 2000, Revisions: 400, AtomBytes: 42,
	EditsPerRevision: 12, ModifyFraction: 0.55, HotSpots: 4, RunLength: 14,
}

// mintHistory replays a generated history through a fresh core.Document,
// passing every operation it mints to note, and returns the document.
func mintHistory(t testing.TB, profile trace.Profile, cfg core.Config, note func(core.Op)) *core.Document {
	t.Helper()
	tr, err := trace.Generate(profile)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := core.NewDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := doc.InsertRunAt(0, tr.Initial)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		note(op)
	}
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
			for _, op := range ops {
				note(op)
			}
		}
		doc.EndRevision()
	}
	return doc
}
