package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// listedPackage is the subset of `go list -json` output Standalone
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// goList runs `go list -export -json -deps patterns...` in dir and
// decodes the concatenated JSON stream. -export makes the go command
// emit (and if necessary build) gc export data for every package in the
// dependency closure, which is what lets Standalone type-check without
// re-compiling anything from source.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer over the export files of a
// `go list -export -deps` closure.
func exportImporter(fset *token.FileSet, pkgs []*listedPackage) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typeCheck parses and type-checks one package's files.
func typeCheck(fset *token.FileSet, path string, filenames []string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// runAnalyzers applies every analyzer to one type-checked package and
// collects the diagnostics, tagged with the analyzer that found them.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path(), err)
		}
	}
	return findings, nil
}

// AnalyzeFiles type-checks an explicit file list as package pkgPath —
// resolving its imports through toolchain export data — and applies the
// analyzers. This is the analysistest entry point: fixture packages
// live under testdata where the go command will not list them, so the
// caller names the files and the imports those files need.
func AnalyzeFiles(pkgPath string, filenames, imports []string, analyzers []*Analyzer) ([]Finding, *token.FileSet, []*ast.File, error) {
	var pkgs []*listedPackage
	if len(imports) > 0 {
		var err error
		pkgs, err = goList("", imports...)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	fset := token.NewFileSet()
	files, pkg, info, err := typeCheck(fset, pkgPath, filenames, exportImporter(fset, pkgs))
	if err != nil {
		return nil, nil, nil, err
	}
	findings, err := runAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		return nil, nil, nil, err
	}
	return findings, fset, files, nil
}

// Finding is one reported diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}
