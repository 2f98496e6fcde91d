// Command treedoc-bench regenerates the tables and figures of the Treedoc
// paper's evaluation (Section 5) from the calibrated synthetic edit
// histories: each table and figure is one experiment of internal/bench,
// rendered in the paper's layout.
//
// Usage:
//
//	treedoc-bench             # everything
//	treedoc-bench -table 4    # one table (1..5)
//	treedoc-bench -figure 6   # figure 6's two series
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/treedoc/treedoc/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1..5); 0 = all")
	figure := flag.Int("figure", 0, "regenerate one figure (6); 0 = per -table")
	flag.Parse()

	if err := run(*table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "treedoc-bench:", err)
		os.Exit(1)
	}
}

func run(table, figure int) error {
	all := table == 0 && figure == 0
	if table == 1 || all {
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if table == 2 || all {
		rows, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if table == 3 || all {
		cells, err := bench.Table3()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable3(cells))
	}
	if table == 4 || all {
		cells, err := bench.Table4()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable4(cells))
	}
	if table == 5 || all {
		rows, err := bench.Table5()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable5(rows))
	}
	if figure == 6 || all {
		series, err := bench.Figure6()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFigure6(series))
	}
	if table != 0 && (table < 1 || table > 5) {
		return fmt.Errorf("no table %d (have 1..5)", table)
	}
	if figure != 0 && figure != 6 {
		return fmt.Errorf("no figure %d (have 6)", figure)
	}
	return nil
}
