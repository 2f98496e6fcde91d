package treedoc

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/trace"
)

// TestGoldenIdentifiers pins the identifiers a replica mints and the
// snapshot bytes it writes: two histories are replayed through
// core.Document and three hashes must equal recorded constants. ids, over
// every minted operation's String(), was recorded on the
// one-byte-per-level codec just before identifiers were bit-packed on the
// wire (PR 18). A tree-layout change that disturbed the free-slot search
// budget, the walk cache or the mini order moves it. ops, over the
// operations' wire bytes, pins the op codec; it was re-recorded with the
// packed layout while ids stood still, which is what shows that change
// moved bytes and not identifiers. enc, over storage.Encode of the final
// tree, pins the snapshot stream; it was re-recorded the same way when
// presence bits replaced marker runs (TDC2), with ids and ops standing
// still.
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
			"5dee57627ee230c4bbe814c626fa25c5c6ef0f6bb6a5d7fda65c851e8f813483"},
		// The paper's flatten-2 setting: cold-subtree choice and explode
		// decide which identifiers later edits see.
		{"latex-sdis-flatten2", latex, core.Config{Site: 1, Flatten: core.FlattenPolicy{Interval: 2, ColdRevisions: 1}},
			"f1f5f6564730119ed87217b7e96bec0b4e0e2d98bb298ff7494b1853f15aeae3",
			"a514a6d54dbc8ea6423ca35a3c13ed5ab9e2b7401b84f10e50ce9e54c56e7db1",
			"8c4adf5469ada625fda9148f403b69b8a36bb6cd9784692d2f3d7eee396c1df0"},
		// The public default (SDIS, balanced), as the benchmark's writers run it.
		{"history-sdis-balanced", goldenHistory, core.Config{Site: 1},
			"a18ed6668856105d9db31bcd1859c2b651684f0b119784f91e55ad4cd60b8503",
			"8c1b5fdf4cf5a208dcac621950627d881222658b62cdb8dc2b72ca37e57e1949",
			"0b6d678ceb3aecb045e6744b273d037771fbb7659b2f4be5e829da95dbc20fff"},
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

// TestSnapshotStructureBytes is the snapshot format's count gate: on
// goldenHistory's tree — two tombstones for every live atom, the shape a
// joiner's snapshot carries — everything in the encoding that is not atom
// text comes to at most 1.25 bytes per tree node: the node's head byte, plus
// a length byte per live atom, a handful of disambiguators and the header.
// It is a count, exact on every host. (The marker-run format before it
// spent 5.16.)
func TestSnapshotStructureBytes(t *testing.T) {
	tree := mintHistory(t, goldenHistory, core.Config{Site: 1}, func(core.Op) {}).Tree()
	m, nodes := storage.Measure(tree), tree.Stats(ident.PaperCost(ident.SDIS)).Nodes
	if got := float64(m.OverheadBytes) / float64(nodes); got > 1.25 {
		t.Errorf("snapshot structure: %d bytes for %d nodes = %.3f per node, want <= 1.25", m.OverheadBytes, nodes, got)
	}
}

// TestSnapshotAllocs holds the two ends of a join to what they must
// allocate on goldenHistory's tree. Taking a snapshot: the result, the
// encoder's handle queue and the version vector's copies — nothing per
// node. Installing one: the slab chunks the records live in (64 nodes to a
// chunk; every mini of this tree, live or dead, is alone in its node, a solo
// with no mini record), the packed text of each 64 live atoms and their
// block, four blocks to an allocation, the decoder's block scratch growing
// to one block's text (12 at most),
// plus the replica, its clocks, the chunk directories' growth and the two
// trees' flat-region maps — nothing per node, nothing per mini, nothing per
// atom. (Before the atoms' text was packed, a string per live atom came on
// top: the budget was LiveAtoms + Nodes/64 + LiveAtoms/256 + 51.)
func TestSnapshotAllocs(t *testing.T) {
	d := &Doc{doc: mintHistory(t, goldenHistory, core.Config{Site: 1}, func(core.Op) {})}
	data, _, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The fewest of several counts: under the race detector sync.Pool
	// drops a random share of the buffers put back, which only adds.
	least := math.Inf(1)
	for range 5 {
		least = math.Min(least, testing.AllocsPerRun(20, func() { d.Snapshot() }))
	}
	if least > 8 {
		t.Errorf("Snapshot: %.0f allocs, want <= 8", least)
	}
	s := d.doc.Tree().Stats(ident.PaperCost(ident.SDIS))
	budget := float64((s.Nodes+1)/64 + s.LiveAtoms/64 + 1 + s.LiveAtoms/256 + 1 + 12 + 3 + 48)
	got := testing.AllocsPerRun(20, func() {
		joiner, err := New(WithSite(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := joiner.InstallSnapshot(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("InstallSnapshot: %.0f allocs for %d live atoms, %d nodes, %d minis; want <= %.0f", got, s.LiveAtoms, s.Nodes, s.Minis, budget)
	}
}

// TestTreeRecordCount is the count gate of the tree's records on
// goldenHistory's tree (SDIS, balanced growth): the paper-model node count,
// which counts every reserved empty node whether or not a record holds it,
// and the bytes the tree's slabs hold. Both are exact on every host. While
// every reserved node had a record the tree held the same 9,082 nodes in
// 529,176 bytes; a reservation held as a level count builds only the
// nodes inserts enter, and the 105,984 bytes of 46 chunks of node records
// went; 36- and 28-byte records held them in 423,192 bytes before the
// mini-child links moved to the tree's side table (32- and 20-byte records),
// and those in 351,008 before an SDIS tombstone that is its node's only
// mini became a flag on the node: 3,896 of its 5,893 mini records went;
// and those in 272,040 before a live mini alone in its node joined them
// there, its atom handle in the node's old empty-node counter: the last
// 1,997 mini records went; and those in 230,824 before a chain of one
// site's tombs became one node record (a run): 1,281 of its 6,129 node
// records went, and 20 chunks of them; and those in 189,864 before a
// node's edit stamp left its record (32 → 28 bytes) for the tree's stamp
// chunks. This replica's revision clock moves, so it holds a stamp chunk
// beside each of its 76 node chunks and pays what it saves, plus the
// stamps' directory. The same history replayed with a clock that never
// moves stamps nothing and holds no stamp chunk: its 71 node chunks took
// 179,624 bytes at 32-byte records, and it saves an eighth of them. Both
// held 12,951 bytes more (191,032 and 161,472) before the atoms' text was
// packed: a 16-byte string header per handle, 256 to a 4 KiB chunk, went
// for a 280-byte block of ends per 64 handles, four blocks to an
// allocation, and the spare capacity of the text buffers — 2.5 KB of it
// the room the block that fresh handles fill keeps for its slots to come.
// Both held 8 bytes more (178,081 and 148,521) while a flattened region's
// atoms were a string array in a map beside the store: the map's header
// went when a region became a run of the store's handles. Both held 178,073
// and 148,513 bytes before a site became a 16-bit index into the tree's
// site table: a node record went 28 → 24 bytes (1,536-byte chunks) and a
// mini 20 → 16 (1,024-byte chunks), and the tree holds the table's first
// four entries in its own record.
func TestTreeRecordCount(t *testing.T) {
	for _, c := range []struct {
		stamped     bool
		nodes, heap int
	}{{true, 9082, 158721}, {false, 9082, 130441}} {
		s := replayHistory(t, goldenHistory, core.Config{Site: 1}, func(core.Op) {}, c.stamped).Tree().Stats(ident.PaperCost(ident.SDIS))
		if s.Nodes != c.nodes || s.HeapBytes != c.heap {
			t.Errorf("tree, stamped %v: %d nodes in %d heap bytes, want %d in %d", c.stamped, s.Nodes, s.HeapBytes, c.nodes, c.heap)
		}
	}
}

// TestFlattenIntervalHeap pins the heap bytes of goldenHistory's tree
// replayed with the paper's cold-subtree flatten every 1 and every 8
// revisions (Section 5.1, as internal/bench replays it). Each flatten loads
// its region at fresh atom handles, and the policy keeps picking regions
// that hold earlier flat ones. While a flatten freed the region's old
// handles into the same store, where only inserts took them back, the two
// trees held 403,345 and 150,793 bytes, the first grown by its region at
// every round; a flatten now moves every atom to a fresh store. They held
// 56,296 and 80,624 bytes before a site became a 16-bit index in 24-byte
// nodes and 16-byte minis.
func TestFlattenIntervalHeap(t *testing.T) {
	for _, c := range []struct{ interval, heap int }{{1, 50512}, {8, 71768}} {
		cfg := core.Config{Site: 1, Flatten: core.FlattenPolicy{Interval: c.interval, ColdRevisions: 1, MinNodes: 2}}
		s := replayHistory(t, goldenHistory, cfg, func(core.Op) {}, true).Tree().Stats(ident.PaperCost(ident.SDIS))
		if s.HeapBytes != c.heap {
			t.Errorf("flatten every %d revisions: %d heap bytes for %d atoms, want %d", c.interval, s.HeapBytes, s.LiveAtoms, c.heap)
		}
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
	return replayHistory(t, profile, cfg, note, true)
}

// replayHistory is mintHistory that ends each revision with EndRevision
// only if stamped: a replica whose revision clock never moves stamps no
// node.
func replayHistory(t testing.TB, profile trace.Profile, cfg core.Config, note func(core.Op), stamped bool) *core.Document {
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
		if stamped {
			doc.EndRevision()
		}
	}
	return doc
}
