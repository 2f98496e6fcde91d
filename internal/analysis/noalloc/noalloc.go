// Package noalloc verifies that functions annotated //treedoc:noalloc
// compile without heap allocations, by running the compiler's escape
// analysis (go build -gcflags=-m) over the package and diffing its
// "escapes to heap" / "moved to heap" diagnostics against the annotation
// set. The bench gate catches an un-pooled encoder statistically and
// after the fact; this check catches it deterministically at vet time,
// from the compiler's own proof.
//
// Escapes inside an annotated function are tolerated in two cases:
//
//   - error construction: diagnostics positioned inside a fmt.Errorf,
//     fmt.Sprintf, or errors.New call are the cold failure path, not the
//     hot path the annotation protects;
//   - explicit waivers: a "//treedoc:escape <reason>" comment waives
//     diagnostics on its own line (trailing form) or the next line
//     (standalone form) — the intended exact-size result copies in
//     storage.Encode and transport.EncodeOps.
//
// Everything else is reported, and so is a waiver inside an annotated
// function whose line has no heap diagnostic: it waives nothing today and
// would hide the next allocation written there. The waiver is
// line-scoped, so a new allocation on any other line of the function —
// making pooled scratch escape, dropping a stack buffer, reintroducing a
// per-rune string conversion — fails vet. Deliberately not proven: allocation-freedom of
// callees (annotate them too; non-inlined calls are opaque to -m) and
// anything the compiler of a future Go release decides differently —
// this check rides the toolchain's escape analysis, it does not reimplement it.
//
// Running the compiler requires the package to be buildable from the
// module root; the analyzer shells out with the module root as working
// directory. The Go build cache replays diagnostics on cache hits, so
// repeat runs cost a cache probe, not a rebuild.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"github.com/treedoc/treedoc/internal/analysis"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "check that //treedoc:noalloc functions compile without heap escapes",
	Run:  run,
}

// span is one annotated function's extent in a file, with the line
// ranges of its error-construction calls.
type span struct {
	name        string
	start, end  int
	exemptLines map[int]bool
}

func run(pass *analysis.Pass) error {
	// Annotated functions and waiver lines, keyed by absolute filename.
	spans := make(map[string][]span)
	waived := make(map[string]map[int]bool)
	total := 0
	for _, file := range pass.Files {
		pos := pass.Fset.Position(file.Pos())
		filename := pos.Filename
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := analysis.Directive(fn.Doc, "noalloc"); !ok {
				continue
			}
			s := span{
				name:        fn.Name.Name,
				start:       pass.Fset.Position(fn.Pos()).Line,
				end:         pass.Fset.Position(fn.End()).Line,
				exemptLines: errorCallLines(pass.Fset, fn),
			}
			spans[filename] = append(spans[filename], s)
			total++
		}
		w, err := waiverLines(pass.Fset, file, filename)
		if err != nil {
			return err
		}
		if len(w) > 0 {
			waived[filename] = w
		}
	}
	if total == 0 {
		return nil
	}

	diags, err := escapeDiagnostics(pass)
	if err != nil {
		return err
	}
	escaped := make(map[string]map[int]bool) // the lines with a heap diagnostic
	for _, d := range diags {
		if escaped[d.file] == nil {
			escaped[d.file] = make(map[int]bool)
		}
		escaped[d.file][d.line] = true
		fn := enclosing(spans[d.file], d.line)
		if fn == nil || fn.exemptLines[d.line] || waived[d.file][d.line] {
			continue
		}
		pass.ReportAt(token.Position{Filename: d.file, Line: d.line, Column: d.col},
			"%s is //treedoc:noalloc but %s (add //treedoc:escape <reason> if intended)", fn.name, d.msg)
	}
	// A waiver in an annotated function must waive something, or it hides
	// the next allocation moved onto its line.
	for file, lines := range waived {
		for line := range lines {
			if fn := enclosing(spans[file], line); fn != nil && !escaped[file][line] {
				pass.ReportAt(token.Position{Filename: file, Line: line, Column: 1},
					"%s is //treedoc:noalloc but its //treedoc:escape waives a line with no heap escape (remove it)", fn.name)
			}
		}
	}
	return nil
}

// enclosing returns the annotated function whose span holds line, or nil.
func enclosing(fns []span, line int) *span {
	for i := range fns {
		if line >= fns[i].start && line <= fns[i].end {
			return &fns[i]
		}
	}
	return nil
}

// errorCallLines returns the lines covered by fmt.Errorf/fmt.Sprintf/
// errors.New calls in fn: the cold error path, exempt from the noalloc
// contract.
func errorCallLines(fset *token.FileSet, fn *ast.FuncDecl) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		name := pkg.Name + "." + sel.Sel.Name
		switch name {
		case "fmt.Errorf", "fmt.Sprintf", "errors.New":
			for l := fset.Position(call.Pos()).Line; l <= fset.Position(call.End()).Line; l++ {
				lines[l] = true
			}
		}
		return true
	})
	return lines
}

// waiverLines maps each //treedoc:escape comment to the line it waives:
// its own line when code precedes it (trailing form), the next line when
// the comment stands alone.
func waiverLines(fset *token.FileSet, file *ast.File, filename string) (map[int]bool, error) {
	var src []string
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//treedoc:escape") {
				continue
			}
			pos := fset.Position(c.Pos())
			if src == nil {
				data, err := os.ReadFile(filename)
				if err != nil {
					return nil, fmt.Errorf("noalloc: %w", err)
				}
				src = strings.Split(string(data), "\n")
			}
			trailing := false
			if pos.Line-1 < len(src) {
				before := src[pos.Line-1][:pos.Column-1]
				trailing = strings.TrimSpace(before) != ""
			}
			if trailing {
				lines[pos.Line] = true
			} else {
				lines[pos.Line+1] = true
			}
		}
	}
	return lines, nil
}

type escapeDiag struct {
	file      string
	line, col int
	msg       string
}

var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// escapeDiagnostics compiles the package with -gcflags=-m from the
// module root and returns the heap-escape diagnostics with filenames
// resolved to absolute paths.
func escapeDiagnostics(pass *analysis.Pass) ([]escapeDiag, error) {
	rel, err := filepath.Rel(pass.ModRoot, pass.Dir)
	if err != nil {
		return nil, fmt.Errorf("noalloc: %w", err)
	}
	arg := "."
	if rel != "." {
		arg = "./" + filepath.ToSlash(rel)
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", arg)
	cmd.Dir = pass.ModRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("noalloc: go build -gcflags=-m %s: %w\n%s", arg, err, out)
	}
	var diags []escapeDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(pass.ModRoot, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escapeDiag{file: filepath.Clean(file), line: ln, col: col, msg: msg})
	}
	return diags, nil
}
