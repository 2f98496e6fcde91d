package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.json from this build's tables")

// table is one of the paper's tables as the reproduction regenerates it,
// with, beside its cells, the values the paper publishes for them, keyed by
// the cell they belong to.
type table[R any] struct {
	Rows  []R                `json:"rows"`
	Paper map[string]float64 `json:"paper,omitempty"`
}

// paperTables is testdata/paper.json.
type paperTables struct {
	Table1  table[Table1Row]   `json:"table1"`
	Table2  table[Table2Row]   `json:"table2"`
	Table3  table[Table3Cell]  `json:"table3"`
	Table4  table[Table4Cell]  `json:"table4"`
	Table5  table[Table5Row]   `json:"table5"`
	Figure6 table[SeriesPoint] `json:"figure6"`
}

// TestPaperTablesPinned pins every cell of Table1–Table5 and Figure6 to
// testdata/paper.json: a change that moves the reproduction shows as a
// diff of that file, and `go test ./internal/bench -run PaperTablesPinned
// -update` rewrites it. The tables are deterministic: traces, replays and
// the cost model are seeded and single-threaded. The model prices an atom
// as the paper does (§5.2), not by its Go representation, so a change to
// how the tree stores atoms moves no cell.
func TestPaperTablesPinned(t *testing.T) {
	var p paperTables
	var err error
	if p.Table1.Rows, err = Table1(); err != nil {
		t.Fatal(err)
	}
	if p.Table2.Rows, err = Table2(); err != nil {
		t.Fatal(err)
	}
	if p.Table3.Rows, err = Table3(); err != nil {
		t.Fatal(err)
	}
	if p.Table4.Rows, err = Table4(); err != nil {
		t.Fatal(err)
	}
	if p.Table5.Rows, err = Table5(); err != nil {
		t.Fatal(err)
	}
	if p.Figure6.Rows, err = Figure6(); err != nil {
		t.Fatal(err)
	}
	// What the paper publishes for these cells (the reproduction's own
	// tests hold the shapes: tables_test.go). Table 1 and Table 5 publish
	// ranges, not cells: memory overhead 0.36–3.7 × the file size, and
	// Logoot/Treedoc ratios 1.8–3.9.
	p.Table2.Paper = map[string]float64{
		"average.Revisions": 312, "average.InitialLines": 103, "average.FinalLines": 279,
		"less active.Revisions": 51, "less active.InitialLines": 99,
		"most active.Revisions": 870, "most active.InitialLines": 9,
	}
	p.Table3.Paper = map[string]float64{
		"no-flatten.NoBalance": 77.5, "flatten-8.NoBalance": 67.8, "flatten-8.Balance": 62.9, "flatten-2.NoBalance": 15.8,
	}
	p.Table4.Paper = map[string]float64{
		"no-flatten.SDIS.OverheadPerAtom": 570, "no-flatten.balanced.SDIS.OverheadPerAtom": 377,
		"flatten-2.SDIS.OverheadPerAtom": 34, "flatten-2.UDIS.OverheadPerAtom": 24,
	}
	got, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "paper.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("the reproduction moved: %s line %d reads %q, this build %q (-update rewrites it; say why in CHANGES.md)", path, i+1, w[i], g[i])
			}
		}
		t.Fatalf("the reproduction moved: %s has %d lines, this build %d", path, len(w), len(g))
	}
}
