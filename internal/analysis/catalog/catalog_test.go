package catalog

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const repoRoot = "../../.."

// TestShapes: every catalog entry obeys the shape its analyzer
// enforces, and every entry has a non-empty description.
func TestShapes(t *testing.T) {
	for name, desc := range Probes {
		if !ProbeNameRE.MatchString(name) {
			t.Errorf("catalog probe %q is not dotted-lowercase", name)
		}
		if strings.TrimSpace(desc) == "" {
			t.Errorf("catalog probe %q has no description", name)
		}
	}
	for key, desc := range SettingsKeys {
		if !SettingsKeyRE.MatchString(key) {
			t.Errorf("catalog settings key %q is not a lowercase word", key)
		}
		if strings.TrimSpace(desc) == "" {
			t.Errorf("catalog settings key %q has no description", key)
		}
	}
}

// TestProbesMatchDeclaringConstants cross-checks the catalog against
// the Probe*/Series* string constants actually declared in the probe-
// owning packages — both directions: a constant missing from the
// catalog fails (register it), and a catalog entry no package declares
// fails (it would be a series nobody can sample).
func TestProbesMatchDeclaringConstants(t *testing.T) {
	declared := map[string]string{}
	for _, dir := range []string{"internal/variant", "internal/workload", "internal/harness", "internal/cluster", "internal/faults"} {
		for name, val := range probeConstants(t, filepath.Join(repoRoot, dir)) {
			declared[val] = name
		}
	}
	for val, name := range declared {
		if !IsProbe(val) {
			t.Errorf("constant %s declares probe %q but the catalog does not register it", name, val)
		}
	}
	for val := range Probes {
		if _, ok := declared[val]; !ok {
			t.Errorf("catalog registers probe %q but no Probe*/Series* constant declares it — sampled-but-never-registered", val)
		}
	}
}

// TestSettingsKeysMatchDecoderCalls cross-checks the catalog against
// the keys the variant and load registries actually decode — both
// directions again: an undecoded catalog key is a knob that does
// nothing, and a decoded key outside the catalog is undocumented drift
// (also caught per-call-site by the settingskeys analyzer).
func TestSettingsKeysMatchDecoderCalls(t *testing.T) {
	decodeRE := regexp.MustCompile(`\.(Bool|Int|Float|Enum|Duration|String)\("([a-z][a-z0-9]*)"`)
	decoded := map[string]bool{}
	for _, dir := range []string{"internal/variant", "internal/workload", "internal/cluster", "internal/faults"} {
		for _, src := range nonTestSources(t, filepath.Join(repoRoot, dir)) {
			for _, m := range decodeRE.FindAllStringSubmatch(src, -1) {
				decoded[m[2]] = true
			}
		}
	}
	for key := range decoded {
		if !IsSettingsKey(key) {
			t.Errorf("registry decodes settings key %q but the catalog does not register it", key)
		}
	}
	for key := range SettingsKeys {
		if !decoded[key] {
			t.Errorf("catalog registers settings key %q but no registry decodes it", key)
		}
	}
}

// TestReadmeDocumentsCatalog: every probe name and settings key in the
// catalog appears in the README — the analyzers guarantee code matches
// the catalog, this guarantees the catalog matches the docs.
func TestReadmeDocumentsCatalog(t *testing.T) {
	readme := readFile(t, filepath.Join(repoRoot, "README.md"))
	for name := range Probes {
		// The throughput series are documented as one collapsed row.
		if strings.HasPrefix(name, "throughput.") &&
			strings.Contains(readme, "throughput.all/static/dynamic/quick/lengthy") {
			continue
		}
		if !strings.Contains(readme, name) {
			t.Errorf("README does not mention probe %q", name)
		}
	}
	for key := range SettingsKeys {
		if !strings.Contains(readme, "`"+key) {
			t.Errorf("README does not document settings key %q", key)
		}
	}
}

// probeConstants type-checks one package directory (syntax-only
// importer: constants need no imports resolved) and returns its
// Probe*/Series* string constants.
func probeConstants(t *testing.T, dir string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	consts := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Probe") && !strings.HasPrefix(name.Name, "Series") {
						continue
					}
					if i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						val := constant.StringVal(constant.MakeFromLiteral(lit.Value, lit.Kind, 0))
						consts[name.Name] = val
					}
				}
			}
		}
	}
	return consts
}

func nonTestSources(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		srcs = append(srcs, readFile(t, filepath.Join(dir, e.Name())))
	}
	return srcs
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
