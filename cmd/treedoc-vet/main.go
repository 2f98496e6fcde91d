// Command treedoc-vet runs the repo's custom invariant analyzers —
// noalloc, guardedby, actoronly, framekinds, errwrap — over package
// patterns, printing findings in the familiar file:line:col form and
// exiting non-zero when any invariant is violated.
//
// Usage:
//
//	treedoc-vet [-run name,name] [packages]
//
// Patterns default to ./... and are expanded with go list. The tool must
// run from inside the module it checks (import resolution and the
// noalloc compiler pass are rooted there). It is invoked directly rather
// than through go vet -vettool: the vettool protocol requires the
// x/tools unitchecker, and this repo builds offline from the standard
// library alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/treedoc/treedoc/internal/analysis"
	"github.com/treedoc/treedoc/internal/analysis/actoronly"
	"github.com/treedoc/treedoc/internal/analysis/errwrap"
	"github.com/treedoc/treedoc/internal/analysis/framekinds"
	"github.com/treedoc/treedoc/internal/analysis/guardedby"
	"github.com/treedoc/treedoc/internal/analysis/noalloc"
)

var all = []*analysis.Analyzer{
	actoronly.Analyzer,
	errwrap.Analyzer,
	framekinds.Analyzer,
	guardedby.Analyzer,
	noalloc.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fatal(err)
	}

	modRoot, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := listPackages(patterns)
	if err != nil {
		fatal(err)
	}

	loader := analysis.NewLoader()
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		pkg, err := loader.Load(p.dir, p.importPath, modRoot)
		if err != nil {
			fatal(err)
		}
		for _, a := range analyzers {
			ds, err := analysis.Run(a, pkg)
			if err != nil {
				fatal(err)
			}
			diags = append(diags, ds...)
		}
	}

	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: treedoc-vet [-run name,name] [packages]\n\nanalyzers:\n")
	for _, a := range all {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot locates the enclosing module and refuses to run outside
// one: the source importer and the noalloc compiler pass both resolve
// packages relative to it.
func moduleRoot() (string, error) {
	out, err := goTool("env", "GOMOD")
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(out)
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("treedoc-vet must run from inside a module")
	}
	return filepath.Dir(gomod), nil
}

type pkgRef struct {
	dir, importPath string
}

func listPackages(patterns []string) ([]pkgRef, error) {
	args := append([]string{"list", "-f", "{{.Dir}}\t{{.ImportPath}}"}, patterns...)
	out, err := goTool(args...)
	if err != nil {
		return nil, err
	}
	var pkgs []pkgRef
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		dir, importPath, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("unexpected go list output: %q", line)
		}
		pkgs = append(pkgs, pkgRef{dir: dir, importPath: importPath})
	}
	return pkgs, nil
}

// goTool runs the go command and returns stdout, folding stderr into the
// error so go list complaints surface verbatim.
func goTool(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treedoc-vet:", err)
	os.Exit(2)
}
