// Package catalog holds the module's two string-keyed name spaces to
// the README, which is their only catalog: the probe and series names
// the harness samples, and the settings keys variant.Decoder reads.
// Each name is declared once in Go (a constant or a decoder call) and
// documented once in a README table. The package is test-only; its
// tests load the whole module at once through framework.Standalone,
// which is why they are tests and not analyzers.
package catalog

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"stagedweb/internal/analysis/framework"
)

// computedProbeNames lists the functions that build a variant.Probe
// whose Name is not a constant, each with the reason its names are
// covered anyway. Keys are import path (without the module prefix),
// optional receiver type, and function name.
var computedProbeNames = map[string]string{
	"internal/cluster.Balancer.Probes": "re-exports each shard's own probes, summed across shards, under the shard's names",
}

var (
	// probeNameShape is dotted lowercase with at least two segments
	// ("db.inuse", not "dbInUse").
	probeNameShape = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9]+)+$`)
	// settingsKeyShape is one lowercase word ("minreserve", not
	// "min-reserve" or "minReserve").
	settingsKeyShape = regexp.MustCompile(`^[a-z][a-z0-9]*$`)
	// decodeMethods are the variant.Decoder methods whose first
	// argument is a settings key.
	decodeMethods = map[string]bool{"Int": true, "Bool": true, "Float": true, "Enum": true, "Duration": true, "String": true}
)

// TestShapes: every probe name the code samples is dotted lowercase,
// and every settings key it decodes is one lowercase word.
func TestShapes(t *testing.T) {
	n, _, _ := load(t)
	for _, msg := range n.shapeErrs {
		t.Error(msg)
	}
}

// TestProbesMatchDeclaringConstants: every name the code can sample
// (the Probe*/Series* string constants and the constant Name of every
// variant.Probe literal) has a row in a README table headed "Series".
// Two probe constants with one value fail, as does a computed probe
// name outside computedProbeNames, and an entry of that table that
// names no such site.
func TestProbesMatchDeclaringConstants(t *testing.T) {
	n, docProbes, _ := load(t)
	for _, msg := range n.probeErrs {
		t.Error(msg)
	}
	undocumented(t, "probe name", n.probes, docProbes)
	for site, reason := range computedProbeNames {
		switch {
		case reason == "":
			t.Errorf("computedProbeNames[%s] has no reason", site)
		case !n.computed[site]:
			t.Errorf("computedProbeNames[%s] builds no probe with a computed name; drop the entry", site)
		}
	}
}

// TestSettingsKeysMatchDecoderCalls: every key passed to a
// variant.Decoder method is a constant and has a README row: in the
// settings table's "Key" column, or a "Settings" column of the
// load-profile or fault-plan table.
func TestSettingsKeysMatchDecoderCalls(t *testing.T) {
	n, _, docKeys := load(t)
	for _, msg := range n.keyErrs {
		t.Error(msg)
	}
	undocumented(t, "settings key", n.keys, docKeys)
}

// TestReadmeDocumentsCatalog is the other direction: every series and
// settings key the README tables document is one the code declares.
func TestReadmeDocumentsCatalog(t *testing.T) {
	n, docProbes, docKeys := load(t)
	undeclared(t, "probe name", n.probes, docProbes)
	undeclared(t, "settings key", n.keys, docKeys)
}

// undocumented fails on a name the code declares and the README does
// not document.
func undocumented(t *testing.T, kind string, code map[string]string, readme map[string]bool) {
	t.Helper()
	for _, name := range slices.Sorted(maps.Keys(code)) {
		if !readme[name] {
			t.Errorf("%s: %s %q has no row in a README table", code[name], kind, name)
		}
	}
}

// undeclared fails on a documented name no code declares.
func undeclared(t *testing.T, kind string, code map[string]string, readme map[string]bool) {
	t.Helper()
	for _, name := range slices.Sorted(maps.Keys(readme)) {
		if _, ok := code[name]; !ok {
			t.Errorf("README documents %s %q, which no code declares", kind, name)
		}
	}
}

var loaded struct {
	once               sync.Once
	names              *names
	docProbes, docKeys map[string]bool
	err                error
}

// load collects the module's names once and reads the README's tables;
// every test shares the result.
func load(t *testing.T) (*names, map[string]bool, map[string]bool) {
	t.Helper()
	loaded.once.Do(func() {
		n := &names{probes: map[string]string{}, keys: map[string]string{}, consts: map[string]string{}, computed: map[string]bool{}}
		collector := &framework.Analyzer{Name: "names", Doc: "collect probe names and settings keys", Run: n.collect}
		if _, loaded.err = framework.Standalone("", []*framework.Analyzer{collector}, "stagedweb/..."); loaded.err != nil {
			return
		}
		readme, err := os.ReadFile("../../../README.md")
		if loaded.err = err; err != nil {
			return
		}
		loaded.names = n
		loaded.docProbes, loaded.docKeys = readmeNames(string(readme))
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.names, loaded.docProbes, loaded.docKeys
}

// names accumulates, across the packages of one load, the probe names
// and settings keys (each → position of its first use), the probe
// constants (value → the first constant's name), and the rule
// violations each test reports.
type names struct {
	probes, keys map[string]string
	consts       map[string]string
	computed     map[string]bool // computedProbeNames sites seen

	shapeErrs, probeErrs, keyErrs []string
}

func (n *names) errorf(errs *[]string, pass *framework.Pass, pos token.Pos, format string, args ...any) {
	*errs = append(*errs, pass.Fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
}

// collect records one package's names and the rule violations among
// them.
func (n *names) collect(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			site := site(pass, decl)
			ast.Inspect(decl, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.ValueSpec:
					n.probeConstants(pass, node)
				case *ast.CompositeLit:
					n.probeLiteral(pass, site, node)
				case *ast.CallExpr:
					n.decoderKey(pass, node)
				}
				return true
			})
		}
	}
	return nil
}

// site names the declaration decl as computedProbeNames spells it:
// "path.Name" or "path.Recv.Name" for a func, "path" otherwise.
func site(pass *framework.Pass, decl ast.Decl) string {
	path := strings.TrimPrefix(strings.TrimPrefix(pass.Pkg.Path(), "stagedweb"), "/")
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return path
	}
	if recv := pass.TypesInfo.Defs[fd.Name].(*types.Func).Signature().Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		path += "." + rt.(*types.Named).Obj().Name()
	}
	return path + "." + fd.Name.Name
}

func (n *names) probeConstants(pass *framework.Pass, spec *ast.ValueSpec) {
	for _, id := range spec.Names {
		c, ok := pass.TypesInfo.Defs[id].(*types.Const)
		if !ok || c.Val().Kind() != constant.String || !strings.HasPrefix(id.Name, "Probe") && !strings.HasPrefix(id.Name, "Series") {
			continue
		}
		val := constant.StringVal(c.Val())
		if first, dup := n.consts[val]; dup {
			n.errorf(&n.probeErrs, pass, id.Pos(), "duplicate probe name %q: const %s has it too", val, first)
			continue
		}
		n.consts[val] = id.Name
		n.probe(pass, id.Pos(), val)
	}
}

func (n *names) probeLiteral(pass *framework.Pass, site string, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !framework.NamedType(tv.Type, "stagedweb/internal/variant", "Probe") || len(lit.Elts) == 0 {
		return
	}
	name := lit.Elts[0] // positional: Name is the first field
	if _, keyed := name.(*ast.KeyValueExpr); keyed {
		name = nil
		for _, elt := range lit.Elts {
			if kv := elt.(*ast.KeyValueExpr); kv.Key.(*ast.Ident).Name == "Name" {
				name = kv.Value
			}
		}
		if name == nil {
			return
		}
	}
	switch val := pass.TypesInfo.Types[name].Value; {
	case val != nil && val.Kind() == constant.String:
		n.probe(pass, name.Pos(), constant.StringVal(val))
	case computedProbeNames[site] != "":
		n.computed[site] = true
	default:
		n.errorf(&n.probeErrs, pass, name.Pos(), "probe name is computed, not a constant: use a constant, or list %s in computedProbeNames with a reason", site)
	}
}

func (n *names) probe(pass *framework.Pass, pos token.Pos, val string) {
	if !probeNameShape.MatchString(val) {
		n.errorf(&n.shapeErrs, pass, pos, "probe name %q is not dotted lowercase (want e.g. %q)", val, "db.inuse")
	} else if n.probes[val] == "" {
		n.probes[val] = pass.Fset.Position(pos).String()
	}
}

func (n *names) decoderKey(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !decodeMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; !ok || !framework.NamedType(tv.Type, "stagedweb/internal/variant", "Decoder") {
		return
	}
	arg := call.Args[0]
	val := pass.TypesInfo.Types[arg].Value
	if val == nil || val.Kind() != constant.String {
		n.errorf(&n.keyErrs, pass, arg.Pos(), "settings key is computed, not a constant")
		return
	}
	switch k := constant.StringVal(val); {
	case !settingsKeyShape.MatchString(k):
		n.errorf(&n.shapeErrs, pass, arg.Pos(), "settings key %q is not a lowercase word (want e.g. %q)", k, "minreserve")
	case n.keys[k] == "":
		n.keys[k] = pass.Fset.Position(arg.Pos()).String()
	}
}

// readmeNames reads the README's tables. The first column of a table
// headed "Series" gives sampled names; the "Key" column of the settings
// table and every "Settings" column give settings keys. Each name is
// one backquoted token; a series token may share a prefix across
// names, as `throughput.all/static` does for throughput.all and
// throughput.static.
func readmeNames(readme string) (probes, keys map[string]bool) {
	probes, keys = map[string]bool{}, map[string]bool{}
	tick := regexp.MustCompile("`([^`]+)`")
	var header []string
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "|") {
			header = nil
			continue
		}
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, "/"), "| "), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if header == nil {
			header = cells
			continue
		}
		for i, cell := range cells[:min(len(cells), len(header))] {
			for _, m := range tick.FindAllStringSubmatch(cell, -1) {
				switch tok := m[1]; {
				case i == 0 && header[0] == "Series":
					first, _, _ := strings.Cut(tok, "/")
					prefix := first[:strings.LastIndex(first, ".")+1]
					for _, leaf := range strings.Split(tok[len(prefix):], "/") {
						probes[prefix+leaf] = true
					}
				case i == 0 && header[0] == "Key", strings.HasPrefix(header[i], "Settings"):
					keys[tok] = true
				}
			}
		}
	}
	return probes, keys
}
