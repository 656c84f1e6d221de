// Package probenames defines an analyzer for the probe/series name
// space sampled into harness Result.Series.
//
// Probe names are the join key between variant.Instance.Probes, the
// harness sampler, JSON artifacts, CSV exports, and the CI assertions
// that grep them — a misspelled or undeclared name produces a series
// that silently never lines up. The analyzer enforces, per package:
//
//   - every variant.Probe composite literal takes its Name from a named
//     string constant (no inline literals — the constant is what the
//     README and the experiment tests reference);
//   - every probe-name constant (a string constant whose name starts
//     with Probe or Series) is dotted-lowercase and appears in the
//     canonical catalog (internal/analysis/catalog);
//   - no two probe-name constants in a package share a value.
//
// The reverse direction — catalog entries nobody declares, names the
// harness samples but the README never mentions — is covered by the
// catalog package's tests, which cross-check this list against the
// declaring sources and the README table.
package probenames

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"stagedweb/internal/analysis/catalog"
	"stagedweb/internal/analysis/framework"
)

// Analyzer is the probenames pass.
var Analyzer = &framework.Analyzer{
	Name: "probenames",
	Doc:  "require probe/series names to be dotted-lowercase named string constants registered in internal/analysis/catalog; detect duplicates",
	Run:  run,
}

func run(pass *framework.Pass) error {
	allows := framework.ScanAllows(pass)
	checkConstants(pass, allows)
	checkProbeLiterals(pass, allows)
	allows.Finish()
	return nil
}

// checkConstants audits declared probe-name constants.
func checkConstants(pass *framework.Pass, allows *framework.Allows) {
	byValue := map[string]string{} // value -> first constant name
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || obj.Val().Kind() != constant.String {
						continue
					}
					if !strings.HasPrefix(name.Name, "Probe") && !strings.HasPrefix(name.Name, "Series") {
						continue
					}
					if pass.InTestFile(name.Pos()) || allows.Allowed(name.Pos()) {
						continue
					}
					val := constant.StringVal(obj.Val())
					if !catalog.ProbeNameRE.MatchString(val) {
						pass.Reportf(name.Pos(), "probe name %q (const %s) is not dotted-lowercase (want e.g. %q)", val, name.Name, "db.inuse")
						continue
					}
					if first, dup := byValue[val]; dup {
						pass.Reportf(name.Pos(), "duplicate probe name %q: already declared by const %s", val, first)
						continue
					}
					byValue[val] = name.Name
					if !catalog.IsProbe(val) {
						pass.Reportf(name.Pos(), "probe name %q (const %s) is not registered in internal/analysis/catalog", val, name.Name)
					}
				}
			}
		}
	}
}

// checkProbeLiterals audits variant.Probe composite literals: the Name
// must come from a named constant whose value is in the catalog.
func checkProbeLiterals(pass *framework.Pass, allows *framework.Allows) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || !framework.NamedType(tv.Type, "stagedweb/internal/variant", "Probe") {
				return true
			}
			if pass.InTestFile(lit.Pos()) {
				return true
			}
			nameExpr := probeNameExpr(lit)
			if nameExpr == nil {
				return true
			}
			if allows.Allowed(nameExpr.Pos()) {
				return true
			}
			tvName, ok := pass.TypesInfo.Types[nameExpr]
			if !ok || tvName.Value == nil || tvName.Value.Kind() != constant.String {
				pass.Reportf(nameExpr.Pos(), "probe name must be a string constant, not a computed value")
				return true
			}
			if bl, isLit := ast.Unparen(nameExpr).(*ast.BasicLit); isLit {
				pass.Reportf(nameExpr.Pos(), "probe name %s is an inline literal: use a named constant so docs and CI can reference it", bl.Value)
				return true
			}
			val := constant.StringVal(tvName.Value)
			if !catalog.ProbeNameRE.MatchString(val) {
				pass.Reportf(nameExpr.Pos(), "probe name %q is not dotted-lowercase", val)
			} else if !catalog.IsProbe(val) {
				pass.Reportf(nameExpr.Pos(), "probe name %q is not registered in internal/analysis/catalog", val)
			}
			return true
		})
	}
}

// probeNameExpr extracts the Name field expression from a Probe
// composite literal, keyed or positional.
func probeNameExpr(lit *ast.CompositeLit) ast.Expr {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Name" {
				return kv.Value
			}
			continue
		}
		if i == 0 {
			return elt
		}
	}
	return nil
}
