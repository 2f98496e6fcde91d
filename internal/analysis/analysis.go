// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The x/tools module is deliberately not imported — the repository builds
// offline from the standard library alone — so this package provides just
// the surface the treedoc-vet analyzers need: parsed syntax (including
// test files), full type information for the
// non-test package, position-addressed diagnostics, and a loader
// (load.go) that resolves imports through the stdlib source importer.
// Should the repo ever vendor x/tools, each analyzer's Run function ports
// over mechanically: the Pass fields mirror analysis.Pass by name.
//
// The five analyzers under this package machine-check invariants the
// repository otherwise states only in prose (docs/ARCHITECTURE.md §9–§11):
//
//   - noalloc: //treedoc:noalloc functions compile without heap escapes
//   - guardedby: fields commented "guarded by <mu>" are accessed with the
//     mutex held on the syntactic path
//   - actoronly: fields commented "actor-owned" are touched only from the
//     actor loop's call tree
//   - framekinds: every kind* wire constant keys one row of the frame
//     table, whose constructor returns a type with a wire method
//   - errwrap: exported functions don't leak other packages' bare errors
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters. It
	// must be a valid identifier.
	Name string
	// Doc is the one-paragraph description printed by treedoc-vet -help.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	// A non-nil error aborts the whole vet run (a broken analyzer or an
	// unbuildable package), which is distinct from reporting diagnostics.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and types to an Analyzer, mirroring
// x/tools' analysis.Pass by field name where the concepts coincide.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the type-checked, non-test syntax of the package.
	Files []*ast.File
	// TestFiles is the parsed (not type-checked) syntax of the package's
	// _test.go files, in-package and external alike, for checks that only
	// need syntactic presence (the fixture runner reads their want
	// comments); nothing here resolves identifiers in test files.
	TestFiles []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package directory on disk; ImportPath its import path
	// ("." for ad-hoc fixture directories). ModRoot is the enclosing
	// module root, the working directory for go-build-driven analyzers.
	Dir        string
	ImportPath string
	ModRoot    string

	diagnostics []Diagnostic
}

// Diagnostic is one finding, addressed to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an already-resolved file position, for
// analyzers whose evidence comes from outside the fileset (noalloc's
// compiler diagnostics).
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies one analyzer to a loaded package and returns its findings
// sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		TestFiles:  pkg.TestFiles,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		Dir:        pkg.Dir,
		ImportPath: pkg.ImportPath,
		ModRoot:    pkg.ModRoot,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	sort.Slice(pass.diagnostics, func(i, j int) bool {
		di, dj := pass.diagnostics[i].Pos, pass.diagnostics[j].Pos
		if di.Filename != dj.Filename {
			return di.Filename < dj.Filename
		}
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		return di.Column < dj.Column
	})
	return pass.diagnostics, nil
}
