package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"
)

// keptForTests lists the exported names of the main module whose only
// readers are tests, each with the reason it stays. Every other
// exported name must have a reader in non-test code of this module or
// of the benchmark module. Keys are import path (without the module
// prefix), optional receiver type, and name.
var keptForTests = map[string]string{
	"internal/clock.Manual.BlockUntilWaiters": "the deterministic test clock: wait until sleepers register",
	"internal/clock.Manual.Set":               "the deterministic test clock: jump to an absolute time",
	"internal/dbtier.Tier.Backends":           "the replica-convergence tests compare every engine directly",
	"internal/dbtier.Tier.Sync":               "the replica oracle: a barrier before comparing primary and replicas",
	"internal/dbtier.Tier.ReplayErrors":       "the replica replay-failure oracle of the replication tests",
	"internal/sqldb.DB.ReplLog":               "the variant tests assert a failed build leaves the database unreplicated",
	"internal/sqldb.DB.Snapshot":              "the MVCC tests' reference read, and the hook for an isolation checker",
	"internal/sqldb.DB.TableSize":             "row-count oracle of the clone, replica, failover and population tests",
	"internal/sqldb.Snapshot.Close":           "part of DB.Snapshot's read view",
	"internal/sqldb.Snapshot.Query":           "part of DB.Snapshot's read view",
	"internal/sqldb.Snapshot.TS":              "part of DB.Snapshot's read view",
	"internal/webtest.App.AddStatic":          "a helper of the tests (webtest is for tests and the benchmark)",
	"internal/webtest.App.AddTemplate":        "a helper of the tests (webtest is for tests and the benchmark)",
	"internal/webtest.Get":                    "the one-shot GET of seven test files, and the only non-test reader of Dial and Client.Do",
	"internal/webtest.KVDB":                   "the one-table fixture of the server, tier and fault tests, with its connection check",
	"internal/webtest.Main":                   "the goroutine leak check that ends every serving package's test binary",
	"internal/webtest.NoNewGoroutines":        "the leak check at a point inside a test: after Stop, after a failing build",
	"internal/webtest.RaceEnabled":            "a helper of the tests (webtest is for tests and the benchmark)",
}

// setOnlyByTests lists the config fields of the main module that only
// tests set, each with the reason it stays. Every other exported field
// of an exported struct type named Options, Config or Env, or whose name
// ends in Config, must be set by a non-test file of either module: named
// in a keyed composite literal, or assigned outside its declaring
// package. Keys are import path (without the module prefix), type, and
// field.
var setOnlyByTests = map[string]string{
	"internal/stage.Config.QueueCap":              "the shed tests need a line they can fill; at the 4 096 default that is thousands of parked goroutines under -race -count=20",
	"internal/server.TransportConfig.IdleTimeout": "the idle-connection tests need a wall-clock timeout well under the 10 s default",
}

// TestEveryExportedNameHasAReader is the dead-surface check: it fails on
// every exported func, method and package-level const, var and type
// declared in the main module's non-test files that no non-test file of
// either module uses, unless keptForTests lists it. A method that
// satisfies an interface visible to its users (error, fmt.Stringer,
// flag.Value, the module's own interfaces) counts as read.
func TestEveryExportedNameHasAReader(t *testing.T) {
	prog := load(t)
	defs, reads := map[string]string{}, map[string]bool{}
	for _, p := range prog.pkgs {
		collectReads(prog.fset, p, defs, reads)
	}
	if !reads["internal/stage.Stage.Start"] {
		t.Error("benchmark module not loaded: stage.Stage.Start, read only by benchmark/, has no reader")
	}
	reportDead(t, "keptForTests", keptForTests, defs, reads, "reader")
}

// TestWebtestStaysInTests fails when a non-test package of the main
// module imports internal/webtest: it is for tests and the benchmark
// module. The benchmark's import of it shows the graph was read.
func TestWebtestStaysInTests(t *testing.T) {
	const webtest = mainModule + "/internal/webtest"
	benchmarkImports := false
	for _, p := range load(t).pkgs {
		for _, imp := range p.types.Imports() {
			switch {
			case imp.Path() != webtest:
			case inMainModule(p.types.Path()):
				t.Errorf("%s imports %s, which is for tests and the benchmark module", p.path, webtest)
			default:
				benchmarkImports = true
			}
		}
	}
	if !benchmarkImports {
		t.Error("no package of the benchmark module imports webtest: the import graph was not read")
	}
}

// TestEveryConfigFieldHasASetter fails on every config field (see
// setOnlyByTests) that no non-test file of either module sets, unless
// setOnlyByTests lists it. A knob only tests turn is a constant instead.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	prog := load(t)
	fields, sets := map[string]string{}, map[string]bool{}
	for _, p := range prog.pkgs {
		collectFields(prog.fset, p, fields, sets)
	}
	if !sets["internal/stage.Config.Workers"] {
		t.Error("generic config types not seen: stage.Config.Workers, set by stage.New's callers, has no setter")
	}
	reportDead(t, "setOnlyByTests", setOnlyByTests, fields, sets, "setter")
}

// reportDead fails on every key of defs (key → position) that used does
// not hold and the exception table does not list, and on every entry of
// the table that checkUsed rejects.
func reportDead(t *testing.T, table string, exceptions, defs map[string]string, used map[string]bool, role string) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(defs)) {
		if !used[key] && exceptions[key] == "" {
			t.Errorf("%s: %s has no %s outside tests; delete it, or add it to %s with a reason", defs[key], key, role, table)
		}
	}
	exists := func(key string) bool { return defs[key] != "" }
	needed := func(key string) bool { return !used[key] }
	for _, msg := range checkUsed(table, exceptions, exists, needed, "has a "+role+" outside tests") {
		t.Error(msg)
	}
}

// key names obj as "path.Name" or "path.Recv.Name", or "" when obj is
// outside the main module. Keys are strings because each module's load
// type-checks its own copy of every package.
func key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj.Pkg() == nil || !inMainModule(obj.Pkg().Path()) {
		return ""
	}
	path := trimModule(obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // an interface method: read through its implementations
			}
			return path + "." + named.Origin().Obj().Name() + "." + obj.Name()
		}
	}
	return path + "." + obj.Name()
}

// collectReads records p's exported definitions, if p is in the main
// module, and its uses. The loader reads non-test files only, so every
// use seen here is a reader outside tests.
func collectReads(fset *token.FileSet, p *pkg, defs map[string]string, reads map[string]bool) {
	if inMainModule(p.types.Path()) {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, id := range declaredNames(decl) {
					if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
						if k := key(obj); k != "" {
							defs[k] = fset.Position(id.Pos()).String()
						}
					}
				}
			}
		}
	}
	for _, obj := range p.info.Uses {
		if k := key(obj); k != "" {
			reads[k] = true
		}
	}
	satisfiedInterfaces(p, reads)
}

// isConfigType reports whether an exported type name is in the config
// field check's scope.
func isConfigType(name string) bool {
	return name == "Options" || name == "Env" || strings.HasSuffix(name, "Config")
}

// fieldKey names field of the struct type owner (or *owner) as
// "path.Type.Field", or "" when owner is not a main-module config type.
func fieldKey(owner types.Type, field string) string {
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	named, ok := types.Unalias(owner).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil || !inMainModule(obj.Pkg().Path()) || !obj.Exported() || !isConfigType(obj.Name()) {
		return ""
	}
	return trimModule(obj.Pkg().Path()) + "." + obj.Name() + "." + field
}

// collectFields records the exported fields of p's config types and the
// config fields p sets: the keys of a keyed composite literal, and the
// targets of an assignment outside the field's package.
func collectFields(fset *token.FileSet, p *pkg, fields map[string]string, sets map[string]bool) {
	if inMainModule(p.types.Path()) {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					if k := fieldKey(tn.Type(), f.Name()); k != "" {
						fields[k] = fset.Position(f.Pos()).String()
					}
				}
			}
		}
	}
	assigned := func(lhs ast.Expr) {
		se, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		sel, ok := p.info.Selections[se]
		if !ok || sel.Kind() != types.FieldVal || sel.Obj().Pkg() == p.types {
			return
		}
		// Walk the embedding path to the struct that declares the field.
		owner := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			owner = fieldOf(owner, i).Type()
		}
		if k := fieldKey(owner, sel.Obj().Name()); k != "" {
			sets[k] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if k := fieldKey(p.info.TypeOf(n), id.Name); k != "" {
								sets[k] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			}
			return true
		})
	}
}

// fieldOf returns field i of the struct t or *t.
func fieldOf(t types.Type, i int) *types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct).Field(i)
}

// declaredNames returns the identifiers a top-level declaration binds:
// a func or method name, or each const, var and type spec name.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.ValueSpec:
				ids = append(ids, sp.Names...)
			case *ast.TypeSpec:
				ids = append(ids, sp.Name)
			}
		}
		return ids
	}
	return nil
}

// satisfiedInterfaces marks as read every main-module method that
// implements a method of an interface visible from p: declared in it or
// in a package it imports, directly or not, written as a literal in it,
// or the predeclared error. Within one package the package and its
// imports share one type universe, so types.Implements is exact.
func satisfiedInterfaces(p *pkg, reads map[string]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if n.TypeParams().Len() == 0 && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if inMainModule(tp.Path()) && n.NumMethods() > 0 {
				named = append(named, n)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	walk(p.types)
	// Expression types add interface literals and the instantiations
	// of generic types, which satisfy interfaces only once instantiated.
	for _, tv := range p.info.Types {
		t := types.Unalias(tv.Type)
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
		}
		switch t := t.(type) {
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Named:
			if t.TypeArgs().Len() > 0 && inMainModule(t.Obj().Pkg().Path()) {
				named = append(named, t)
			}
		}
	}
	for _, n := range named {
		if n.TypeParams().Len() > n.TypeArgs().Len() {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					if k := key(obj); k != "" {
						reads[k] = true
					}
				}
			}
		}
	}
}
