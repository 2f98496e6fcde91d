// Command treedoc-replay replays an edit history through a Treedoc replica
// and reports the paper's overhead measurements (Section 5) for it.
//
// Histories come from the built-in calibrated profiles or from a JSON-lines
// trace file (see internal/trace for the format):
//
//	treedoc-replay -list
//	treedoc-replay -profile acf.tex -mode udis -balanced -flatten 2
//	treedoc-replay -file history.jsonl -series
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/treedoc/treedoc/internal/bench"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/trace"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list built-in workload profiles")
		profile  = flag.String("profile", "", "built-in profile name")
		file     = flag.String("file", "", "JSON-lines trace file")
		mode     = flag.String("mode", "sdis", "disambiguator scheme: sdis or udis")
		balanced = flag.Bool("balanced", false, "balanced allocation (Section 4.1)")
		batch    = flag.Bool("batch", false, "group consecutive inserts into minimal subtrees")
		flatten  = flag.Int("flatten", 0, "flatten a cold subtree every N revisions (0 = never)")
		series   = flag.Bool("series", false, "print per-revision node counts (Figure 6 style)")
		dump     = flag.String("dump", "", "write the workload as a JSON-lines trace file and exit")
	)
	flag.Parse()

	if err := run(*list, *profile, *file, *mode, *balanced, *batch, *flatten, *series, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "treedoc-replay:", err)
		os.Exit(1)
	}
}

func run(list bool, profile, file, mode string, balanced, batch bool, flatten int, series bool, dump string) error {
	if list {
		fmt.Printf("%-22s %-10s %9s %8s %7s\n", "profile", "atoms", "revisions", "initial", "final")
		for _, p := range trace.Profiles() {
			fmt.Printf("%-22s %-10s %9d %8d %7d\n", p.Name, p.Granularity, p.Revisions, p.InitialAtoms, p.FinalAtoms)
		}
		return nil
	}
	var tr *trace.Trace
	switch {
	case profile != "" && file != "":
		return fmt.Errorf("choose either -profile or -file")
	case profile != "":
		p, err := trace.ProfileByName(profile)
		if err != nil {
			return err
		}
		tr, err = trace.Generate(p)
		if err != nil {
			return err
		}
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Read(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -profile, -file or -list")
	}

	if dump != "" {
		f, err := os.Create(dump)
		if err != nil {
			return err
		}
		if err := trace.Write(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d revisions\n", dump, len(tr.Revisions))
		return nil
	}

	rc := bench.ReplayConfig{
		Balanced:        balanced,
		Batch:           batch,
		FlattenInterval: flatten,
		Series:          series,
	}
	switch mode {
	case "sdis":
		rc.Mode = ident.SDIS
	case "udis":
		rc.Mode = ident.UDIS
	default:
		return fmt.Errorf("unknown mode %q (want sdis or udis)", mode)
	}

	res, err := bench.ReplayTreedoc(tr, rc)
	if err != nil {
		return err
	}
	ts := res.Stats.Tree
	fmt.Printf("trace      %s: %d revisions, %d -> %d atoms (%d bytes), %d inserts / %d deletes\n",
		res.Trace.Name, res.Trace.Revisions, res.Trace.InitialAtoms, res.Trace.FinalAtoms,
		res.Trace.FinalBytes, res.Trace.Inserts, res.Trace.Deletes)
	fmt.Printf("config     %s\n", res.Config)
	fmt.Printf("replay     %v (%d ops, %.1f KB network)\n",
		res.Duration.Round(10_000), res.Stats.OpsApplied, float64(res.Stats.NetBits)/8192)
	fmt.Printf("PosID      max %d bits, avg %.2f bits, overhead/atom %.0f bits\n",
		ts.MaxIDBits, ts.AvgIDBits(), ts.OverheadBitsPerAtom())
	fmt.Printf("nodes      %d (%d minis, %d tombstones, %d flat atoms, %.2f%% non-tombstone)\n",
		ts.Nodes, ts.Minis, ts.DeadMinis, ts.FlatAtoms, 100*ts.NonTombstoneFraction())
	fmt.Printf("memory     %d bytes overhead (%.2fx document) in the paper's node model\n", ts.MemBytes, ts.MemOverheadRatio())
	fmt.Printf("heap       %d bytes of node and mini slabs and atom blocks, text left out (%.2fx the model)\n", ts.HeapBytes, ts.HeapOverModel())
	fmt.Printf("disk       %d bytes total, %d bytes overhead (%.2f%% of document)\n",
		res.Disk.TotalBytes, res.Disk.OverheadBytes, res.Disk.OverheadPercent())
	fmt.Printf("tree       height %d\n", res.Stats.Height)
	if series {
		fmt.Printf("\n%10s %10s %12s\n", "revision", "nodes", "non-T nodes")
		for _, pt := range res.Series {
			fmt.Printf("%10d %10d %12d\n", pt.Revision, pt.Nodes, pt.NonTomb)
		}
	}
	return nil
}
