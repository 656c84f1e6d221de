package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"
)

// wallClockFuncs are the time-package functions that read or schedule
// against the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// wallclock reports every call of a package-level wall-clock function of
// package time. All scheduling, pacing and measurement flows through an
// injected clock.Clock, so experiments run deterministically under
// clock.Manual and time-dilated under clock.Precise; a wall-clock call
// past the injection point re-anchors its component to real time and
// breaks both. Methods of time.Time are fine: their values came from a
// clock.
func wallclock(fset *token.FileSet, p *pkg) []finding {
	var found []finding
	for _, f := range p.files {
		for _, decl := range f.Decls {
			site := p.siteOf(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := callee(p.info, call).(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] && fn.Signature().Recv() == nil {
					found = append(found, p.finding(fset, "wallclock", site, "time."+fn.Name(), call.Pos(),
						"direct wall-clock call time.%s: route timing through the injected clock.Clock", fn.Name()))
				}
				return true
			})
		}
	}
	return found
}

// wallclockPrelude heads every wallclock fixture.
const wallclockPrelude = "package fixture\n\nimport \"time\"\n"

// TestWallclockFixtures: the check catches the load generator's pre-fix
// population controller (today workload.Generator.control), which paced
// a paper-time schedule with the wall clock so a clock.Manual run
// re-targeted the fleet on the wrong timeline, and its open-loop twin;
// it stays silent on time.Time methods and duration arithmetic.
func TestWallclockFixtures(t *testing.T) {
	runFixtures(t, wallclock, wallclockPrelude, []fixture{
		{"population controller", `
func control(stop chan struct{}, wallTick time.Duration, schedule func(time.Duration) int, setTarget func(int)) {
	tick := time.NewTicker(wallTick)
	defer tick.Stop()
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			setTarget(schedule(time.Since(start)))
		}
	}
}`, []string{
			"control: direct wall-clock call time.NewTicker: route timing through the injected clock.Clock",
			"control: direct wall-clock call time.Now: route timing through the injected clock.Clock",
			"control: direct wall-clock call time.Since: route timing through the injected clock.Clock",
		}},
		{"open-loop arrival gap", `
func arrivalGap(gap time.Duration) *time.Timer {
	return time.NewTimer(gap)
}`, []string{"arrivalGap: direct wall-clock call time.NewTimer: route timing through the injected clock.Clock"}},
		{"time.Time methods", `
func expired(deadline, now time.Time) bool {
	return now.After(deadline) && now.Sub(deadline) > time.Second
}`, nil},
		{"duration arithmetic", `
func holdFor(base time.Duration) time.Duration {
	return base * 3 / 2
}`, nil},
	})
}
