package analysis

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
	n, _, _ := loadCatalog(t)
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
	n, docProbes, _ := loadCatalog(t)
	for _, msg := range n.probeErrs {
		t.Error(msg)
	}
	undocumented(t, "probe name", n.probes, docProbes)
	exists := func(site string) bool { return load(t).sites[site] }
	needed := func(site string) bool { return n.computed[site] }
	for _, msg := range checkUsed("computedProbeNames", computedProbeNames, exists, needed, "builds no probe with a computed name") {
		t.Error(msg)
	}
}

// TestSettingsKeysMatchDecoderCalls: every key passed to a
// variant.Decoder method is a constant and has a README row: in the
// settings table's "Key" column, or a "Settings" column of the
// load-profile or fault-plan table.
func TestSettingsKeysMatchDecoderCalls(t *testing.T) {
	n, _, docKeys := loadCatalog(t)
	for _, msg := range n.keyErrs {
		t.Error(msg)
	}
	undocumented(t, "settings key", n.keys, docKeys)
}

// TestReadmeDocumentsCatalog is the other direction: every series and
// settings key the README tables document is one the code declares.
func TestReadmeDocumentsCatalog(t *testing.T) {
	n, docProbes, docKeys := loadCatalog(t)
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

var catalog struct {
	once               sync.Once
	names              *names
	docProbes, docKeys map[string]bool
	err                error
}

// loadCatalog collects the main module's names once and reads the
// README's tables; every test shares the result.
func loadCatalog(t *testing.T) (*names, map[string]bool, map[string]bool) {
	t.Helper()
	prog := load(t)
	catalog.once.Do(func() {
		n := &names{fset: prog.fset, probes: map[string]string{}, keys: map[string]string{}, consts: map[string]string{}, computed: map[string]bool{}}
		for _, p := range prog.pkgs {
			if inMainModule(p.types.Path()) {
				n.collect(p)
			}
		}
		readme, err := os.ReadFile("../../README.md")
		if catalog.err = err; err != nil {
			return
		}
		catalog.names = n
		catalog.docProbes, catalog.docKeys = readmeNames(string(readme))
	})
	if catalog.err != nil {
		t.Fatal(catalog.err)
	}
	return catalog.names, catalog.docProbes, catalog.docKeys
}

// names accumulates, across the packages of one load, the probe names
// and settings keys (each → position of its first use), the probe
// constants (value → the first constant's name), and the rule
// violations each test reports.
type names struct {
	fset         *token.FileSet
	probes, keys map[string]string
	consts       map[string]string
	computed     map[string]bool // computedProbeNames sites seen

	shapeErrs, probeErrs, keyErrs []string
}

func (n *names) errorf(errs *[]string, pos token.Pos, format string, args ...any) {
	*errs = append(*errs, n.fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
}

// collect records one package's names and the rule violations among
// them.
func (n *names) collect(p *pkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			site := p.siteOf(decl)
			ast.Inspect(decl, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.ValueSpec:
					n.probeConstants(p, node)
				case *ast.CompositeLit:
					n.probeLiteral(p, site, node)
				case *ast.CallExpr:
					n.decoderKey(p, node)
				}
				return true
			})
		}
	}
}

func (n *names) probeConstants(p *pkg, spec *ast.ValueSpec) {
	for _, id := range spec.Names {
		c, ok := p.info.Defs[id].(*types.Const)
		if !ok || c.Val().Kind() != constant.String || !strings.HasPrefix(id.Name, "Probe") && !strings.HasPrefix(id.Name, "Series") {
			continue
		}
		val := constant.StringVal(c.Val())
		if first, dup := n.consts[val]; dup {
			n.errorf(&n.probeErrs, id.Pos(), "duplicate probe name %q: const %s has it too", val, first)
			continue
		}
		n.consts[val] = id.Name
		n.probe(id.Pos(), val)
	}
}

func (n *names) probeLiteral(p *pkg, site string, lit *ast.CompositeLit) {
	tv, ok := p.info.Types[lit]
	if !ok || !namedType(tv.Type, "stagedweb/internal/variant", "Probe") || len(lit.Elts) == 0 {
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
	switch val := p.info.Types[name].Value; {
	case val != nil && val.Kind() == constant.String:
		n.probe(name.Pos(), constant.StringVal(val))
	case computedProbeNames[site] != "":
		n.computed[site] = true
	default:
		n.errorf(&n.probeErrs, name.Pos(), "probe name is computed, not a constant: use a constant, or list %s in computedProbeNames with a reason", site)
	}
}

func (n *names) probe(pos token.Pos, val string) {
	if !probeNameShape.MatchString(val) {
		n.errorf(&n.shapeErrs, pos, "probe name %q is not dotted lowercase (want e.g. %q)", val, "db.inuse")
	} else if n.probes[val] == "" {
		n.probes[val] = n.fset.Position(pos).String()
	}
}

func (n *names) decoderKey(p *pkg, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !decodeMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	if tv, ok := p.info.Types[sel.X]; !ok || !namedType(tv.Type, "stagedweb/internal/variant", "Decoder") {
		return
	}
	arg := call.Args[0]
	val := p.info.Types[arg].Value
	if val == nil || val.Kind() != constant.String {
		n.errorf(&n.keyErrs, arg.Pos(), "settings key is computed, not a constant")
		return
	}
	switch k := constant.StringVal(val); {
	case !settingsKeyShape.MatchString(k):
		n.errorf(&n.shapeErrs, arg.Pos(), "settings key %q is not a lowercase word (want e.g. %q)", k, "minreserve")
	case n.keys[k] == "":
		n.keys[k] = n.fset.Position(arg.Pos()).String()
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
