package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests fails on a -run or -skip pattern of a CI
// `go test` step that names no test: such a step passes while running
// nothing, so a renamed or deleted test would drop out of CI unseen. Each
// |-alternative of a pattern, its ^ and $ anchors stripped, must match a
// Test function of the packages the step runs; '^$' (run no tests) is
// exempt.
func TestCIRunPatternsMatchTests(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, cmd := range goTestCommands(string(raw)) {
		steps++
		dir, patterns, pkgs := parseGoTest(t, cmd)
		var tests []string
		for _, p := range pkgs {
			tests = append(tests, testFuncs(t, filepath.Join(root, dir), p)...)
		}
		if len(tests) == 0 {
			t.Errorf("%q: its packages hold no Test function", cmd)
		}
		for _, pat := range patterns {
			if pat == "^$" {
				continue
			}
			for _, alt := range strings.Split(pat, "|") {
				alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
				top, _, _ := strings.Cut(alt, "/") // a subtest pattern's top-level part
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%q: pattern %q: %v", cmd, alt, err)
					continue
				}
				if !matchesAny(re, tests) {
					t.Errorf("%q: %q matches no Test function of %s", cmd, alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if steps < 5 {
		t.Fatalf("found %d go test commands in ci.yml; the extraction is broken", steps)
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// goTestCommands returns every `go test` command of the workflow's run:
// values, a folded (>-, >) block joined into one line and a literal (|)
// block split into its lines.
func goTestCommands(yml string) []string {
	lines := strings.Split(yml, "\n")
	var cmds []string
	for i := 0; i < len(lines); i++ {
		key := strings.TrimPrefix(strings.TrimSpace(lines[i]), "- ")
		val, ok := strings.CutPrefix(key, "run:")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		var block []string
		if val == "|" || val == ">" || val == ">-" {
			indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
			for i+1 < len(lines) {
				next := lines[i+1]
				if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
					break
				}
				block = append(block, strings.TrimSpace(next))
				i++
			}
			if val != "|" {
				block = []string{strings.Join(block, " ")}
			}
		} else {
			block = []string{val}
		}
		for _, c := range block {
			if strings.HasPrefix(c, "go test ") {
				cmds = append(cmds, c)
			}
		}
	}
	return cmds
}

// goTestValueFlags are the go test flags that take their value as the
// next word.
var goTestValueFlags = map[string]bool{
	"-C": true, "-run": true, "-skip": true, "-bench": true, "-benchtime": true, "-fuzz": true,
	"-fuzztime": true, "-count": true, "-timeout": true, "-tags": true, "-p": true, "-cpu": true, "-parallel": true,
}

// parseGoTest splits a go test command into the directory it runs in
// (-C), its -run and -skip patterns, and its package patterns.
func parseGoTest(t *testing.T, cmd string) (dir string, patterns, pkgs []string) {
	words := shellWords(t, cmd)[2:] // past "go test"
	dir = "."
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			pkgs = append(pkgs, w)
			continue
		}
		name, val, hasVal := strings.Cut(w, "=")
		if !hasVal && goTestValueFlags[name] {
			if i+1 == len(words) {
				t.Fatalf("%q: %s without a value", cmd, name)
			}
			i++
			val = words[i]
		}
		switch name {
		case "-C":
			dir = val
		case "-run", "-skip":
			patterns = append(patterns, val)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return dir, patterns, pkgs
}

// shellWords splits a command line into words, removing single quotes.
func shellWords(t *testing.T, cmd string) []string {
	var words []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range cmd {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if quoted {
		t.Fatalf("%q: unbalanced quote", cmd)
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// testFuncs lists the Test functions of the package pattern pat (a
// directory, or one ending in /... for the directories under it that
// belong to the same module), relative to moduleDir.
func testFuncs(t *testing.T, moduleDir, pat string) []string {
	var dirs []string
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		top := filepath.Join(moduleDir, base)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != top && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != top {
				return filepath.SkipDir // another module
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		dir := filepath.Join(moduleDir, pat)
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("package %s: %v", pat, err)
		}
		dirs = []string{dir}
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") && fn.Name.Name != "TestMain" {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
