// Package wallclock defines an analyzer that forbids direct wall-clock
// calls (time.Now, time.Since, time.Sleep, time.After, time.Tick,
// time.NewTimer, time.NewTicker, time.AfterFunc, time.Until) outside
// internal/clock.
//
// The repo's timing discipline is that all scheduling, pacing, and
// measurement flows through an injected clock.Clock so experiments run
// deterministically under clock.Manual and time-dilated under
// clock.Precise. Wall-clock calls that leak past the injection point
// re-anchor some component to real time and silently break both —
// exactly the class of bug once fixed in request timing and in a
// per-statement latency histogram. This analyzer makes the discipline
// machine-checked.
//
// Built-in exemptions, per the invariant's charter: internal/clock
// itself (the wrapper has to call time), socket deadlines in
// internal/server/transport.go (kernel deadlines are inherently wall
// time), and wall-scale bookkeeping in internal/harness/harness.go
// (ramp/measure/cooldown really elapse on the wall). Anything else
// needs a //lint:allow wallclock(reason) escape comment.
package wallclock

import (
	"go/ast"
	"go/types"

	"stagedweb/internal/analysis/framework"
)

// forbidden is the set of time-package functions that read or schedule
// against the wall clock.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// builtinAllow lists file basenames exempt per package: the places the
// invariant's charter carves out because they are genuinely wall-bound.
// An empty file set exempts the whole package.
var builtinAllow = map[string][]string{
	"stagedweb/internal/clock":   nil,
	"stagedweb/internal/server":  {"transport.go"},
	"stagedweb/internal/harness": {"harness.go"},
}

// Analyzer is the wallclock pass.
var Analyzer = &framework.Analyzer{
	Name: "wallclock",
	Doc:  "forbid direct time.Now/Since/Sleep/After/Tick/NewTimer calls outside internal/clock; timing must flow through the injected clock.Clock",
	Run:  run,
}

func run(pass *framework.Pass) error {
	files, exemptAll := builtinAllow[pass.Pkg.Path()]
	if exemptAll && files == nil {
		return nil
	}
	exemptFile := map[string]bool{}
	for _, f := range files {
		exemptFile[f] = true
	}

	allows := framework.ScanAllows(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := framework.Callee(pass.TypesInfo, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !forbidden[obj.Name()] {
				return true
			}
			// Only package-level functions: time.Time.After/Sub etc. are
			// methods on values that already came from a Clock.
			if fn, ok := obj.(*types.Func); !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			if exemptFile[baseOf(pass, call)] {
				return true
			}
			if allows.Allowed(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct wall-clock call time.%s: route timing through the injected clock.Clock (or add //lint:allow wallclock(reason))",
				obj.Name())
			return true
		})
	}
	allows.Finish()
	return nil
}

func baseOf(pass *framework.Pass, n ast.Node) string {
	name := pass.Fset.Position(n.Pos()).Filename
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
