// Package framework is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough of the Analyzer/Pass API
// to write this repository's invariant checkers, plus one way to run
// them, Standalone (standalone.go), which loads package patterns via
// `go list -export` and type-checks them from source. One run sees
// every package of a load, so a test can collect across a whole
// program, which a per-package vet tool cannot.
//
// The repo vendors nothing: the container image bakes in only the Go
// toolchain, so the usual x/tools dependency is off the table. The API
// mirrors go/analysis deliberately — if the dependency ever becomes
// available, the analyzers port by changing one import path.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis pass: a named checker that inspects
// a type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow Name(reason) escape comments. It must be a valid Go
	// identifier.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is the interface between one analyzer run and the driver: one
// type-checked package plus a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is a message tied to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The invariant
// analyzers audit production code; tests legitimately synchronize with
// real goroutines on the wall clock, so every analyzer skips test files.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// callee resolves the object a call expression invokes: a package-level
// function, a method, or nil for indirect calls through non-selector
// expressions.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// Callee is the exported resolver the analyzers share.
func Callee(info *types.Info, call *ast.CallExpr) types.Object { return callee(info, call) }

// NamedType reports whether t (after pointer indirection) is the named
// type path.name.
func NamedType(t types.Type, path, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
