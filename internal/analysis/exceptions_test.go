package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strings"
	"testing"
)

// checks are the invariant checks TestRepoAnalyzesClean runs over every
// non-test package of both modules, by the name excused rows spell.
var checks = map[string]func(*token.FileSet, *pkg) []finding{
	"wallclock": wallclock,
	"locksleep": locksleep,
}

// excused lists the sites where a check's finding is by design, each
// with the reason. A key is "check site": site is a package
// ("internal/clock") or a file ("internal/server/transport.go"), and the
// row excuses every finding there. Or it is "check function callee":
// function is spelled as in keptForTests, and the row excuses only
// callee's findings in it, so a different blocking or wall-clock call
// added beside it still fails.
var excused = map[string]string{
	"wallclock internal/clock":                          "the clock wrapper is where the wall clock is read",
	"wallclock internal/server/transport.go":            "socket deadlines are kernel deadlines, wall time by definition",
	"wallclock internal/harness.Run time.Now":           "the WallDuration stamp: how long the run took on the host",
	"wallclock internal/harness.run.collect time.Since": "the WallDuration stamp: how long the run took on the host",
	"wallclock cmd/tpcwload.run time.Sleep":             "the CLI run duration elapses on the operator's wall clock",
	"locksleep internal/sqldb.DB.execInsert chargeCost": "the lock engine charges under the table lock by design: the paper's baseline contention",
	"locksleep internal/sqldb.DB.execWrite chargeCost":  "the lock engine charges under the table lock by design: the paper's baseline contention",
}

// finding is one violation of a check, with the sites a row of excused
// can name.
type finding struct {
	check         string
	pos           token.Position
	pkg, file, fn string // fn is the enclosing declaration, as siteOf spells it
	callee, msg   string // callee is the call a function row permits: "time.Sleep", "chargeCost"
}

func (p *pkg) finding(fset *token.FileSet, check, fn, callee string, pos token.Pos, format string, args ...any) finding {
	return finding{check: check, pos: fset.Position(pos), pkg: p.path, file: p.fileOf(fset, pos), fn: fn, callee: callee, msg: fmt.Sprintf(format, args...)}
}

// excusedBy reports whether the row excuses f.
func (f finding) excusedBy(row string) bool {
	switch fields := strings.Fields(row); {
	case len(fields) == 2:
		return fields[0] == f.check && (fields[1] == f.pkg || fields[1] == f.file)
	case len(fields) == 3:
		return fields[0] == f.check && fields[1] == f.fn && fields[2] == f.callee
	}
	return false
}

// excuse returns the findings no row of table excuses, and the rows that
// excused one.
func excuse(findings []finding, table map[string]string) (left []finding, used map[string]bool) {
	used = map[string]bool{}
	for _, f := range findings {
		hit := false
		for row := range table {
			if f.excusedBy(row) {
				used[row], hit = true, true
			}
		}
		if !hit {
			left = append(left, f)
		}
	}
	return left, used
}

// auditExcused returns the problems of an excused-style table: a row
// that is malformed or names an unknown check, and, through checkUsed,
// one with no reason, naming no site, or excusing nothing.
func auditExcused(table map[string]string, sites, used map[string]bool) []string {
	var problems []string
	for _, row := range slices.Sorted(maps.Keys(table)) {
		switch fields := strings.Fields(row); {
		case len(fields) < 2 || len(fields) > 3:
			problems = append(problems, fmt.Sprintf(`excused[%s] is not "check site" or "check function callee"`, row))
		case checks[fields[0]] == nil:
			problems = append(problems, fmt.Sprintf("excused[%s] names unknown check %q", row, fields[0]))
		}
	}
	exists := func(row string) bool { fields := strings.Fields(row); return len(fields) > 1 && sites[fields[1]] }
	needed := func(row string) bool { return used[row] }
	return append(problems, checkUsed("excused", table, exists, needed, "excuses no finding")...)
}

// checkUsed returns the problems of an exception table, in key order:
// an entry with no reason, naming nothing (exists is false), or no
// longer needed (needed is false, and stale says why). Every exception
// table of the package goes through it, so the tables can only shrink.
func checkUsed(table string, exceptions map[string]string, exists, needed func(key string) bool, stale string) []string {
	var problems []string
	for _, key := range slices.Sorted(maps.Keys(exceptions)) {
		switch {
		case exceptions[key] == "":
			problems = append(problems, fmt.Sprintf("%s[%s] has no reason", table, key))
		case !exists(key):
			problems = append(problems, fmt.Sprintf("%s[%s] names nothing declared; drop the entry", table, key))
		case !needed(key):
			problems = append(problems, fmt.Sprintf("%s[%s] %s; drop the entry", table, key, stale))
		}
	}
	return problems
}

// TestRepoAnalyzesClean runs every check over every non-test package of
// the main module and of the benchmark module. A finding no row of
// excused covers fails, as does a row of excused that checkUsed or
// auditExcused rejects.
func TestRepoAnalyzesClean(t *testing.T) {
	prog := load(t)
	var findings []finding
	for _, p := range prog.pkgs {
		for _, name := range slices.Sorted(maps.Keys(checks)) {
			findings = append(findings, checks[name](prog.fset, p)...)
		}
	}
	left, used := excuse(findings, excused)
	for _, f := range left {
		t.Errorf("%s: %s: %s [%s] (or add a row to excused with a reason)", f.pos, f.fn, f.msg, f.check)
	}
	for _, msg := range auditExcused(excused, prog.sites, used) {
		t.Error(msg)
	}
}

// fixture is one table case of a check: Go source appended to the
// check's prelude, and the exact findings, each "fn: message" with the
// fixture package's name trimmed.
type fixture struct {
	name, src string
	want      []string
}

// checkFixture type-checks prelude+src as package "fixture" against the
// loaded program's export data and runs check over it.
func checkFixture(t *testing.T, check func(*token.FileSet, *pkg) []finding, prelude, src string) ([]finding, *pkg) {
	t.Helper()
	prog := load(t)
	f, err := parser.ParseFile(prog.fset, "fixture.go", prelude+src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p, err := typeCheck(prog.fset, prog.imp, "fixture", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return check(prog.fset, p), p
}

// runFixtures asserts each case's exact findings.
func runFixtures(t *testing.T, check func(*token.FileSet, *pkg) []finding, prelude string, cases []fixture) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			found, _ := checkFixture(t, check, prelude, c.src)
			expect(t, "findings", brief(found), c.want)
		})
	}
}

// expect fails unless got lists exactly want, in order.
func expect(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n\t%s\nwant:\n\t%s", what, strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// brief spells findings as fixtures' want lists do.
func brief(found []finding) []string {
	var out []string
	for _, f := range found {
		out = append(out, strings.TrimPrefix(f.fn, "fixture.")+": "+f.msg)
	}
	return out
}

// TestExceptionTable: a row excuses its site, whether a package, a file
// or a function with one callee, and nothing else there; a row that
// excuses nothing, names no site, has no reason or names no check fails.
func TestExceptionTable(t *testing.T) {
	const lockEngine = `
// lockEngine charges under the table lock by design, as the paper's
// baseline engine does.
func (e *engine) lockEngine(extra bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.chargeCost()
	if extra {
		time.Sleep(time.Millisecond)
	}
}`
	const wallBound = `
func statsCadence() *time.Ticker {
	return time.NewTicker(time.Second)
}

func settle() {
	time.Sleep(time.Millisecond)
}

func clean(d time.Duration) time.Duration {
	return 2 * d
}`
	for _, c := range []struct {
		name          string
		check         func(*token.FileSet, *pkg) []finding
		prelude, src  string
		table         map[string]string
		want, problem []string
	}{
		{"function rows excuse their callees", wallclock, wallclockPrelude, wallBound, map[string]string{
			"wallclock fixture.statsCadence time.NewTicker": "operator-facing cadence is wall time",
			"wallclock fixture.settle time.Sleep":           "settles on the wall",
		}, nil, nil},
		{"a file row excuses the file", wallclock, wallclockPrelude, wallBound, map[string]string{
			"wallclock fixture/fixture.go": "wall-bound file",
		}, nil, nil},
		{"a package row excuses the package", wallclock, wallclockPrelude, wallBound, map[string]string{
			"wallclock fixture": "wall-bound package",
		}, nil, nil},
		{"a row excuses its callee only", locksleep, locksleepPrelude, lockEngine, map[string]string{
			"locksleep fixture.engine.lockEngine chargeCost": "the lock engine charges under the table lock by design",
		}, []string{"engine.lockEngine: time.Sleep while a mutex acquired in this function is held"}, nil},
		{"a row of another check excuses nothing", wallclock, wallclockPrelude, wallBound, map[string]string{
			"locksleep fixture.settle time.Sleep": "a different check",
		}, []string{
			"statsCadence: direct wall-clock call time.NewTicker: route timing through the injected clock.Clock",
			"settle: direct wall-clock call time.Sleep: route timing through the injected clock.Clock",
		}, []string{"excused[locksleep fixture.settle time.Sleep] excuses no finding; drop the entry"}},
		{"stale, dangling, reasonless and unknown rows fail", wallclock, wallclockPrelude, wallBound, map[string]string{
			"wallclock fixture.statsCadence time.NewTicker": "operator-facing cadence is wall time",
			"wallclock fixture.settle time.Sleep":           "",
			"wallclock fixture.clean time.Sleep":            "nothing here calls time",
			"wallclock fixture.gone time.Sleep":             "the function was deleted",
			"nosuchcheck fixture.clean":                     "the check name is checked",
			"wallclock":                                     "no site",
		}, nil, []string{
			`excused[nosuchcheck fixture.clean] names unknown check "nosuchcheck"`,
			`excused[wallclock] is not "check site" or "check function callee"`,
			"excused[nosuchcheck fixture.clean] excuses no finding; drop the entry",
			"excused[wallclock] names nothing declared; drop the entry",
			"excused[wallclock fixture.clean time.Sleep] excuses no finding; drop the entry",
			"excused[wallclock fixture.gone time.Sleep] names nothing declared; drop the entry",
			"excused[wallclock fixture.settle time.Sleep] has no reason",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			found, p := checkFixture(t, c.check, c.prelude, c.src)
			left, used := excuse(found, c.table)
			expect(t, "findings left", brief(left), c.want)
			expect(t, "problems", auditExcused(c.table, sites(load(t).fset, []*pkg{p}), used), c.problem)
		})
	}
}
