// Package analysis holds this module to the invariants its types cannot
// state, as plain tests over one load of each module: timing flows only
// through the injected clock.Clock (wallclock), nothing blocks while a
// mutex it took is held (locksleep), every exported name has a reader
// and every config field a setter outside tests, and every probe name
// and settings key has its README row. The package has test files only.
//
// The loader lists each module once with `go list -export -json -deps`
// and type-checks its non-test packages from source against the
// toolchain's export data; every test shares the result.
package analysis

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
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// mainModule is the import path prefix of the module under check; the
// benchmark module shares it, so it is excluded by name.
const mainModule = "stagedweb"

func inMainModule(path string) bool {
	return (path == mainModule || strings.HasPrefix(path, mainModule+"/")) && !strings.HasPrefix(path, mainModule+"/benchmark")
}

// trimModule spells an import path without the module prefix:
// "internal/sqldb", "benchmark".
func trimModule(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, mainModule), "/")
}

// pkg is one type-checked non-test package.
type pkg struct {
	path  string // import path without the module prefix
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is every non-test package of the main module and of the
// benchmark module, type-checked from source once per test binary.
type program struct {
	fset  *token.FileSet
	imp   types.Importer // export data of the main module's closure, std included
	pkgs  []*pkg         // the main module's, then the benchmark module's
	sites map[string]bool
}

var loaded struct {
	once sync.Once
	prog *program
	err  error
}

// load returns the shared program, loading it on first use.
func load(t *testing.T) *program {
	t.Helper()
	loaded.once.Do(func() {
		prog := &program{fset: token.NewFileSet()}
		var bench []*pkg
		if prog.pkgs, prog.imp, loaded.err = loadModule(prog.fset, "../..", "stagedweb/..."); loaded.err != nil {
			return
		}
		if bench, _, loaded.err = loadModule(prog.fset, "../../benchmark", "./..."); loaded.err != nil {
			return
		}
		prog.pkgs = append(prog.pkgs, bench...)
		prog.sites = sites(prog.fset, prog.pkgs)
		loaded.prog = prog
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.prog
}

// listed is the subset of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	DepOnly    bool
	GoFiles    []string
}

// loadModule lists pattern in dir with its dependency closure and
// type-checks each listed package with non-test files. -export makes
// the go command emit gc export data for the whole closure, so imports
// resolve without compiling anything here.
func loadModule(fset *token.FileSet, dir, pattern string) ([]*pkg, types.Importer, error) {
	cmd := exec.Command("go", "list", "-export", "-json", "-deps", pattern)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s in %s: %v\n%s", pattern, dir, err, errb.String())
	}
	var all []*listed
	exports := map[string]string{}
	for dec := json.NewDecoder(&out); ; {
		l := new(listed)
		if err := dec.Decode(l); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		all = append(all, l)
		if l.Export != "" {
			exports[l.ImportPath] = l.Export
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*pkg
	for _, l := range all {
		if l.DepOnly || len(l.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		p, err := typeCheck(fset, imp, l.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, imp, nil
}

// typeCheck type-checks one package's parsed files.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*pkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	tp, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &pkg{path: trimModule(path), files: files, types: tp, info: info}, nil
}

// siteOf names the declaration decl as the exception tables spell it:
// "path.Name" or "path.Recv.Name" for a func, "path" otherwise.
func (p *pkg) siteOf(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return p.path
	}
	site := p.path
	if recv := p.info.Defs[fd.Name].(*types.Func).Signature().Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		site += "." + rt.(*types.Named).Obj().Name()
	}
	return site + "." + fd.Name.Name
}

// fileOf names the file holding pos as "path/file.go".
func (p *pkg) fileOf(fset *token.FileSet, pos token.Pos) string {
	return p.path + "/" + filepath.Base(fset.Position(pos).Filename)
}

// sites returns every site an exception row can name in pkgs: each
// package, each file and each function or method.
func sites(fset *token.FileSet, pkgs []*pkg) map[string]bool {
	s := map[string]bool{}
	for _, p := range pkgs {
		s[p.path] = true
		for _, f := range p.files {
			s[p.fileOf(fset, f.Pos())] = true
			for _, decl := range f.Decls {
				s[p.siteOf(decl)] = true
			}
		}
	}
	return s
}

// callee resolves the function or method a call invokes, or nil for an
// indirect call through a non-selector expression.
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

// namedType reports whether t, behind at most two pointers, is the
// named type path.name.
func namedType(t types.Type, path, name string) bool {
	for range 2 {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
